"""Desk-scale experiments on tracing properties of group actions.

The package is organized from the group upward: exact word-metric geometry
(``groups``), truncated shift spaces over it (``shifts``), pseudo-orbit
tracing (``shadowing``), hyperbolic toral automorphisms (``torus``),
levelwise quotient-chain actions (``profinite``), and a JSON experiment
harness with a CLI (``harness``, ``cli``).
"""

from .errors import CapacityError, ConfigError, GenerationError, ShadowlabError
from .groups import (
    FreeGroup,
    GroupElement,
    GroupGeometry,
    GroupSpec,
    HeisenbergGroup,
    IntegerLattice,
    free_rank2_spec,
    heisenberg_spec,
    identity,
    integer_line_spec,
    integer_plane_spec,
    rewrite_generator,
)
from .shifts import (
    BINARY,
    Alphabet,
    Configuration,
    DyadicDistance,
    SftSpec,
    ShiftSpace,
    allowed_blocks,
    allowed_blocks_exact_line,
    distance,
    enumerate_admissible,
    even_window_sft,
    full_shift,
    golden_mean_sft,
    hard_square_sft,
    locally_admissible,
    one_forbidden_window_sft,
    random_admissible,
    refutes,
    sft_from_forbidden,
    shift,
)
from .shadowing import (
    PseudoOrbit,
    TracingPlan,
    admissible_sets_agree,
    construct_trace,
    delta_profile,
    generate_pseudo_orbit,
    potp_modulus,
    separation_window_exhaustive_check,
    separation_window_flip_scan,
    separation_window_pair_scan,
    separation_window_sampled,
    synthesize_window_spec,
    uniqueness_scan,
    verify_trace,
)
from .torus import (
    CAT_MATRIX,
    FourierDisplacement,
    PerturbedMap,
    expansiveness_certificate,
    generating_set_transfer,
    heisenberg_block_action,
    random_displacement,
    spectral_splitting,
    stability_report,
)
from .profinite import (
    ProfinitePoint,
    QuotientChain,
    act_point,
    chain_from_csv,
    chain_to_csv,
    chain_trace_experiment,
    level_distance,
    necklace_modulus_search,
    odometer_chain,
    plane_lattice_chain,
)
from .harness import run_config, validate_config

__version__ = "0.1.0"
