"""The verification suites.  Each module checks the relations of one engine
module and returns check records (``reporting.check``); the engine modules
define no checks.  ``RUNNERS`` maps each suite name of ``cycloschur verify``,
in the order of ``--suite all``, to the suite's parts in report order: each
part takes the run's ``RunConfig`` and returns its checks, and the suite's
checks are its parts' checks in turn.  ``cli.run_suites`` deals parts, not
suites, to its workers, so a suite of two parts can use two CPUs; parts of
one suite that run in one process share what they build through
``RunConfig.shared``."""

from . import hecke, lie, schur, symfun

RUNNERS = {
    "hecke": (hecke.run,),
    "schur": (schur.run_ki, schur.run_x),
    "lie": (lie.run,),
    "symfun": (symfun.run,),
    "q1": (schur.run_q1,),
}
