"""krn: a bipartite object/action knowledge net engine.

Objects hold properties, actions sit between objects and carry
interpreted scripts, sensor signals ground everything in addressed
input, and inference happens by running the model forward (simulation)
or by shaping structure after repeated patterns (concepts).
"""

from .core import (
    ActionRecord,
    ChangeSet,
    Kind,
    Net,
    NodeId,
    NodeLoad,
    ObjectRecord,
    PropertyChange,
    PropertyRecord,
    PropLoad,
    Provenance,
    ScriptRef,
    SensorAddress,
    SensorSignal,
    Value,
    ViolationReport,
    nets_equal,
    values_equal,
)
from . import agent, errors, reasoning, sim, store
from .lexicon import Lexicon
from .reasoning import (
    Answer,
    ConceptTemplate,
    Fragment,
    canonical_key,
    collapse_to_action,
    collapse_to_object,
    compute_boundary,
    concept_of,
    expand,
    find_matches,
    match_images,
    mine_concepts,
    parse_fragment,
    query_has,
    register_concept,
    shape,
)
from .script import Ast, ExecContext, apply_undo, execute, parse
from .sim import Snapshot, Timeline, classify_change, diff, run_action, run_pending, snapshot
from .store import StoreHandle, save

__all__ = [
    "ActionRecord", "Answer", "Ast", "ChangeSet", "ConceptTemplate",
    "ExecContext", "Fragment", "Kind", "Lexicon", "Net", "NodeId", "NodeLoad",
    "ObjectRecord", "PropertyChange", "PropertyRecord", "PropLoad", "Provenance",
    "ScriptRef", "SensorAddress", "SensorSignal", "Snapshot", "StoreHandle",
    "Timeline", "Value", "ViolationReport",
    "agent", "apply_undo", "classify_change", "collapse_to_action",
    "collapse_to_object", "compute_boundary", "concept_of", "diff",
    "canonical_key", "errors", "execute", "expand", "find_matches",
    "match_images", "mine_concepts", "nets_equal",
    "parse", "parse_fragment", "query_has", "reasoning",
    "register_concept", "run_action", "run_pending", "save", "shape", "sim",
    "snapshot", "store", "values_equal",
]

__version__ = "0.1.0"
