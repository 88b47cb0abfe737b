"""The process exit-code contract: one registered ``EXIT_CODES`` table.

Every exit site in the CLI entry points (``repro/cli.py``,
``repro/__main__.py``) returns one of the ``EXIT_*`` constants below.
``tests/integration/test_cli.py`` drives each site through
``repro.cli.main`` and asserts its code, and ``docs/usage.md``
documents the same table ("Exit codes"), checked by
``tests/verify/test_faultflow.py`` the way the REPROxxx rule registry
is docs-checked.

This is a stdlib-only leaf module (like :mod:`repro.verify.codes`):
the CLI imports it at module load, so it must not import anything from
the rest of the package.

==============  ====  ====================================================
Name            Code  Meaning
==============  ====  ====================================================
OK              0     the command succeeded
FAILURE         1     the command ran but the gate failed — findings,
                      failed queries, a regressed score or ratchet
USAGE           2     usage, I/O or parse errors: bad flags, missing or
                      malformed input files
VERIFICATION    3     a ``--verify`` self-certification failed — the
                      solver's own answer did not pass the paper
                      certificates
==============  ====  ====================================================
"""

from __future__ import annotations

from typing import Dict

#: The single source of truth.  Keys are stable names (documented in
#: docs/usage.md), values are the process exit statuses.
EXIT_CODES: Dict[str, int] = {
    "OK": 0,
    "FAILURE": 1,
    "USAGE": 2,
    "VERIFICATION": 3,
}

#: Named constants derived from the table, returned by every CLI exit
#: site.
EXIT_OK = EXIT_CODES["OK"]
EXIT_FAILURE = EXIT_CODES["FAILURE"]
EXIT_USAGE = EXIT_CODES["USAGE"]
EXIT_VERIFICATION = EXIT_CODES["VERIFICATION"]
