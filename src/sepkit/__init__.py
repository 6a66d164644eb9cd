"""Exact separatrix analysis on decorated resolution dual graphs.

Each module declares the public names it defines in its own `__all__`;
the package re-exports those lists, in module order, as its `__all__`.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__: list[str] = []
# verdict goes last: its function, not the submodule, is `sepkit.verdict`.
for _name in ("dualgraph", "errors", "exactfield", "fixtures", "holonomy",
              "intersection", "report", "verdict"):
    _module = import_module(f".{_name}", __name__)
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
del _name, _module
