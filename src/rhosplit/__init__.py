"""Exact finite-horizon laboratory for density-splitting combinatorics.

Subpackages cover: enumerable subsets of the naturals with exact
counting (omega_sets), super-exponentially growing interval partitions
with exact per-interval subsets (partitions), the relative-density
calculus (density), adversarial escape constructions with re-checkable
certificates (adversary, certificates), the guarded-interval relation
(preservation), splitting chains and density-parameter transforms
(rho_transform), and finite relational systems (relsys).
"""

from .omega_sets import (
    OMEGA,
    BernoulliSet,
    CombineNode,
    ExplicitSet,
    FiniteSetError,
    HorizonOverflowError,
    OmegaSet,
    PowersSet,
    Progression,
    SequenceSet,
    StrideSelection,
    complement,
    difference,
    intersect,
    parse_set,
    union,
)
from .partitions import (
    ExactCountError,
    IntervalPartition,
    IntervalSubset,
    IntervalSymbolicSet,
    build_partition,
)
from .density import (
    DensityReport,
    SplitVerdict,
    density_report,
    split_verdict,
)
from .certificates import Certificate, Step, verify_certificate
from .adversary import (
    Slalom,
    centred_escape,
    centred_thresholds,
    defeat_bisector,
    half_slalom,
    laver_blocks,
    laver_escape,
    min_index_for_eps,
)
from .preservation import (
    GoodPair,
    nwd_escape,
    reap_tukey_map,
    rel_holds,
    witness_above,
    witness_below,
)
from .rho_transform import (
    ChainConfig,
    SplitChain,
    binary_digits,
    build_chain,
    greedy_base_digits,
    plan_transform,
    select_levels,
    squaring_plan,
    transform_splitter,
)
from .relsys import (
    FiniteRelSys,
    TukeyPair,
    bounding_number,
    check_tukey,
    dominating_number,
    dual,
    zero_split_check,
)

__version__ = "0.1.0"
