"""rankone: exact-arithmetic toolkit for rank-one cutting-and-stacking
systems.

Everything downstream of the construction recurrences is computed in
rational arithmetic; quantities that depend on unresolved future stages are
reported as two-sided MeasureBound enclosures instead of point estimates.

`import rankone` loads no submodule: each exported name loads its module
on first access (PEP 562), so a program pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "averaging": "WeightSequence adjoint_convolution average_apply "
                 "average_moments flatness l2_deviation",
    "construction": "ConstructionSpec CutRule SpacerRule TowerStage build_stage",
    "errors": "EmptyFSetError OrbitEscaped SpecError",
    "flow": "ConsequenceRecord FlowSkeletonSpec FlowWindowReport ThickenedBase "
            "band_indices band_masses consequence_check thickened_base "
            "windowed_return_flow",
    "joinings": "BlockIndex BlockMassMatrix BlockMasses DispersionRow "
                "FSetSpec LightBlockReport LightBlocks TrivializationRecord "
                "columns_and_F di_estimate "
                "dispersion_experiment empirical_joining graph_blocks "
                "light_blocks product_blocks trivialization_check",
    "measure": "EMPTY_SET BoundSeries Interval IntervalSet MeasureBound "
               "StepFunction as_fraction canonicalize set_intersection",
    "persist": "dump_stage frac_str parse_frac spec_hash",
    "stats": "CorrelationSeries ReturnProfile correlation correlation_series "
             "max_profile return_profile window_sums",
    "transform": "Cursor OrbitPoint apply_power power_image",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
