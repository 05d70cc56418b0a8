"""Detection and repair of disjointness-driven incoherence in ontology
alignments: merged subsumption graphs, core-fragment extraction, minimal
conflict-set enumeration, and greedy confidence-aware repair."""

from .conflicts import (
    ConflictList,
    ConflictSet,
    EnumerationCapExceeded,
    count_incoherent_classes,
    disjoint_conflict_clusters,
    find_conflict_sets,
)
from .formats import (
    FormatError,
    parse_alignment_tsv,
    parse_ontology_file,
    write_alignment_tsv,
    write_ontology_file,
)
from .fragments import (
    CoreFragments,
    FragmentError,
    compute_checkset,
    extract_core_fragments,
    fragments_incoherent,
)
from .generator import GeneratorError, GeneratorParams, generate_instance
from .model import (
    Alignment,
    AlignmentError,
    ClassId,
    Mapping,
    MergedGraph,
    ModelError,
    Ontology,
    OntologyError,
    Relation,
    build_ontology,
    merged_view,
)
from .oracle import (
    EvalReport,
    brute_force_min_hitting_set,
    exhaustive_incoherence,
    precision_recall_fmeasure,
)
from .pipeline import Analysis, analyze
from .repair import (
    RemovalCause,
    RemovedMapping,
    RepairConfig,
    RepairResult,
    RepairStats,
    filter_conflicts,
    remove_mapping,
    repair,
    resolved_conflicts,
)

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "AlignmentError",
    "Analysis",
    "ClassId",
    "ConflictList",
    "ConflictSet",
    "CoreFragments",
    "EnumerationCapExceeded",
    "EvalReport",
    "FormatError",
    "FragmentError",
    "GeneratorError",
    "GeneratorParams",
    "Mapping",
    "MergedGraph",
    "ModelError",
    "Ontology",
    "OntologyError",
    "Relation",
    "RemovalCause",
    "RemovedMapping",
    "RepairConfig",
    "RepairResult",
    "RepairStats",
    "analyze",
    "brute_force_min_hitting_set",
    "build_ontology",
    "compute_checkset",
    "count_incoherent_classes",
    "disjoint_conflict_clusters",
    "exhaustive_incoherence",
    "extract_core_fragments",
    "filter_conflicts",
    "find_conflict_sets",
    "fragments_incoherent",
    "generate_instance",
    "merged_view",
    "parse_alignment_tsv",
    "parse_ontology_file",
    "precision_recall_fmeasure",
    "remove_mapping",
    "repair",
    "resolved_conflicts",
    "write_alignment_tsv",
    "write_ontology_file",
]
