"""The names `perfbench/traced.py` imports from this module by its old
name; the implementation is :mod:`alignrepair.greedy`."""

from .greedy import RemovalCause, RepairConfig, repair

__all__ = ["RemovalCause", "RepairConfig", "repair"]
