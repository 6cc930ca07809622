"""BTS power-saving simulator and hysteresis tuning pipeline.

The package re-exports no names: import them from their modules
(``trxsave.saving_engine``, ``trxsave.tables``, ...), so that a CLI stage
loads only the modules it runs.
"""

__version__ = "0.1.0"
