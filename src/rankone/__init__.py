"""rankone: exact-arithmetic toolkit for rank-one cutting-and-stacking
systems.

Everything downstream of the construction recurrences is computed in
rational arithmetic; quantities that depend on unresolved future stages are
reported as two-sided MeasureBound enclosures instead of point estimates.
"""

__version__ = "0.1.0"

from .averaging import (
    WeightSequence,
    adjoint_convolution,
    average_apply,
    average_moments,
    flatness,
    l2_deviation,
)
from .construction import (
    ConstructionSpec,
    CutRule,
    SpacerRule,
    TowerStage,
    build_stage,
)
from .errors import EmptyFSetError, OrbitEscaped, SpecError
from .flow import (
    ConsequenceRecord,
    FlowSkeletonSpec,
    FlowWindowReport,
    ThickenedBase,
    band_indices,
    band_masses,
    consequence_check,
    thickened_base,
    windowed_return_flow,
)
from .joinings import (
    BlockIndex,
    BlockMassMatrix,
    ColumnSpec,
    DispersionRow,
    FSetSpec,
    LightBlockReport,
    LightBlocks,
    TrivializationRecord,
    UniformBlockMasses,
    columns_and_F,
    di_estimate,
    dispersion_experiment,
    empirical_joining,
    graph_blocks,
    light_blocks,
    product_blocks,
    trivialization_check,
)
from .measure import (
    EMPTY_SET,
    BoundSeries,
    Interval,
    IntervalSet,
    MeasureBound,
    StepFunction,
    as_fraction,
    canonicalize,
    set_intersection,
)
from .persist import (
    dump_stage,
    frac_str,
    parse_frac,
    spec_hash,
)
from .stats import (
    CorrelationSeries,
    ReturnProfile,
    correlation,
    correlation_series,
    max_profile,
    return_profile,
    window_sums,
)
from .transform import (
    Cursor,
    OrbitPoint,
    apply_power,
    power_image,
)
