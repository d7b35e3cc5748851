"""Load a fresh copy of orbitposet from the checkout's ``src`` directory."""

from __future__ import annotations

import importlib
import os
import sys

SUBMODULES = ("involutions", "rank_matrices", "moves", "poset", "tableaux", "rs", "oracle", "cli")


class MissingLibrary(RuntimeError):
    """The checkout holds no orbitposet sources to benchmark."""


def source_dir(root: str) -> str:
    """``root/src``, if it holds an orbitposet package."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "orbitposet", "__init__.py")):
        raise MissingLibrary(f"no orbitposet package under {src}")
    return src


def load(root: str):
    """Import orbitposet from ``root/src`` with every module-level cache empty.

    Earlier copies are dropped from ``sys.modules`` first, so each call pays
    the full import and starts from cold ``lru_cache``s, as a new process does.
    """
    src = source_dir(root)
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "orbitposet" or m.startswith("orbitposet.")]:
        del sys.modules[name]
    lib = importlib.import_module("orbitposet")
    for name in SUBMODULES:
        importlib.import_module(f"orbitposet.{name}")
    if os.path.dirname(os.path.dirname(os.path.abspath(lib.__file__))) != os.path.abspath(src):
        raise MissingLibrary(f"orbitposet resolved to {lib.__file__}, outside {src}")
    return lib
