"""Robust multi-view hashing with low-rank kernelized similarity recovery.

Each submodule in `__all__` is imported on first access, so a command loads
only the modules it uses.
"""

import importlib

__all__ = [
    "anchor_graph", "core_math", "dataset", "evaluation", "hash_trainer",
    "kernel_sim", "lowrank_alm", "model_io", "oos_encoder",
]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
