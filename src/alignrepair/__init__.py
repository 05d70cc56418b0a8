"""Detection and repair of disjointness-driven incoherence in ontology
alignments: merged subsumption graphs, core-fragment extraction, minimal
conflict-set enumeration, and greedy confidence-aware repair.

Importing the package loads no submodule.  Each public name is imported
from its module on first access (PEP 562), so a caller loads only the
modules it uses.
"""

import sys

__version__ = "0.1.0"

# Every public name, and the submodule that defines it.
_MODULES = {
    "Alignment": "model",
    "AlignmentError": "model",
    "Analysis": "pipeline",
    "ClassId": "model",
    "ConflictList": "conflicts",
    "ConflictSet": "conflicts",
    "CoreFragments": "fragments",
    "EnumerationCapExceeded": "model",
    "EvalReport": "oracle",
    "FormatError": "formats",
    "FragmentError": "fragments",
    "GeneratorError": "model",
    "GeneratorParams": "generator",
    "Mapping": "model",
    "MergedGraph": "model",
    "ModelError": "model",
    "Ontology": "model",
    "OntologyError": "model",
    "Relation": "model",
    "RemovalCause": "greedy",
    "RemovedMapping": "greedy",
    "RepairConfig": "greedy",
    "RepairResult": "greedy",
    "RepairRun": "pipeline",
    "RepairStats": "greedy",
    "analyze": "pipeline",
    "brute_force_min_hitting_set": "oracle",
    "build_ontology": "model",
    "compute_checkset": "fragments",
    "count_incoherent_classes": "conflicts",
    "disjoint_conflict_clusters": "conflicts",
    "exhaustive_incoherence": "oracle",
    "extract_core_fragments": "fragments",
    "filter_conflicts": "greedy",
    "find_conflict_sets": "conflicts",
    "fragments_incoherent": "fragments",
    "generate_instance": "generator",
    "merged_view": "model",
    "parse_alignment_tsv": "formats",
    "parse_ontology_file": "formats",
    "precision_recall_fmeasure": "oracle",
    "repair": "greedy",
    "repair_alignment": "pipeline",
    "write_alignment_tsv": "formats",
    "write_ontology_file": "formats",
}

__all__ = sorted(_MODULES)


def __getattr__(name: str):
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    value = getattr(sys.modules[f"{__name__}.{module}"], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(type(sys)):
    """The package module's type.  The import system binds each loaded
    submodule as an attribute of its package; the old module name
    `alignrepair.repair` must not hide the function `repair` that way."""

    def __setattr__(self, name: str, value: object) -> None:
        if not (name in _MODULES and isinstance(value, type(sys))):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
