"""The verification suites.  Each module checks the relations of one engine
module and returns check records (``reporting.check``); the engine modules
define no checks.  ``RUNNERS`` maps each suite name of ``cycloschur verify``,
in the order of ``--suite all``, to its runner, which takes the run's
``RunConfig``."""

from . import hecke, lie, schur, symfun

RUNNERS = {
    "hecke": hecke.run,
    "schur": schur.run,
    "lie": lie.run,
    "symfun": symfun.run,
    "q1": schur.run_q1,
}
