"""Exception hierarchy shared by all trxsave modules; the CLI's exit codes are
0 ok, 2 usage/configuration (ConfigurationError), 3 data/parse (DataError).
Only the scan-step spec, which no CLI path runs, raises InvariantError.
"""


class TrxSaveError(Exception):
    """Base class for all trxsave errors."""


class ConfigurationError(TrxSaveError):
    """Invalid configuration: cell layout, saving parameters, policy sizes."""


class DataError(TrxSaveError):
    """Invalid input data: CSV parse failures, malformed traces, bad shapes."""


class InvariantError(TrxSaveError):
    """An internal state invariant was violated (e.g. disabling TRX 1)."""
