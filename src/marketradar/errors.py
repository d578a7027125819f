"""The common base of every error the library raises on purpose.

Each error class also keeps its builtin base (``ValueError`` or
``RuntimeError``), so callers that catch those still do.  The CLI maps any
``MarketRadarError`` to ``error: ...`` and exit code 1.
"""


class MarketRadarError(Exception):
    pass
