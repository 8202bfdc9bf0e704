"""PEP 562 lazy re-exports for package ``__init__`` modules.

A package that re-exports its submodules' names eagerly makes every
``import`` of one submodule compile and run all of its siblings.  With
:func:`lazy_exports`, each name loads its submodule when first touched.
"""

from __future__ import annotations

import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for ``package``, re-exporting
    ``exports`` (submodule name -> names) on first access."""
    lazy = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = lazy.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # ``__import__`` goes through the import statement's machinery,
        # which ``-X importtime`` reports (``importlib.import_module``
        # does not), so the submodule shows in import profiles.
        value = getattr(__import__(f"{package}.{module}", fromlist=[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(lazy))

    return sorted(lazy), __getattr__, __dir__
