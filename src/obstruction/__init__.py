"""Epistemic model checker for one-round distributed task solvability."""

from .adversaries import Adversary, adversary_from_json, adversary_to_json, from_survivor_sets, waitfree
from .complexes import (
    ChromaticComplex,
    Facet,
    Vertex,
    complex_from_json,
    complex_to_json,
)
from .formulas import (
    FALSE,
    TRUE,
    Formula,
    ParseError,
    and_,
    atom,
    common,
    distributed,
    is_positive,
    know,
    not_,
    or_,
    parse,
    render,
)
from .generators import (
    ObstructionReport,
    adversary_obstruction,
    binary_consensus_obstruction,
    greatest_fixed_subset,
    verify_obstruction,
    waitfree_kset_obstruction,
)
from .models import (
    SimplicialModel,
    Verdict,
    check_morphism,
    induce_model,
    model_from_json,
    model_to_json,
)
from .solver import Solvability, SolvabilityResult, find_morphism, knowledge_gain_check
from .tasks import (
    ActionModel,
    apply_action,
    binary_consensus_action,
    decide_own_input_action,
    immediate_snapshot_action,
    initial_model,
    input_of,
    ordered_set_partitions,
    round_operator_action,
    set_agreement_action,
    view_of,
)

__version__ = "0.1.0"
