"""Sampled-data output-feedback sliding mode control laboratory.

Discretize a linear MIMO plant under zero-order hold, design an output
switching surface, and close the loop with one of several discrete sliding
mode controllers that differ in how they estimate the unmeasured
disturbance-plus-drift term.  Companion analysis tools certify the surface
construction, compute closed-loop spectra of the augmented error dynamics,
and measure empirical accuracy orders over sampling-period ladders.
"""

from .analysis import (AugmentedSystem, SpectrumReport, StabilityReport,
                       StabilityRow, augmented_vs_direct, build_aug, charpoly,
                       check_memory_spectrum, memory_block, stability_over_T,
                       variant_for_kind, verify_first_order_memory,
                       verify_second_order_memory)
from .controllers import (KINDS, WARMUP, ControllerState, GainSet, LawTaps,
                          closed_loop, equivalent_control, law_taps,
                          make_gains, reconstruct_g_prev)
from .discretization import (DiffReport, DiscretePlant, DisturbanceSampler,
                             difference_diagnostics, discretize,
                             matched_residual_split)
from .errors import (AssumptionViolation, ConfigError, DisturbanceRangeError,
                     DivergenceError)
from .experiments import (BenchmarkReport, BenchmarkRun, ScalingReport,
                          SweepPoint, SweepSpec, aircraft_benchmark,
                          builtin_scenario_path, load_aircraft_scenario,
                          run_sweep)
from .plant import (ContinuousPlant, DisturbanceSignal, NoiseSpec, Segment,
                    ValidationReport, constant_signal, invariant_zeros,
                    validate_plant, zero_signal)
from .rng import Xoshiro256StarStar
from .scenario import ScenarioError, ScenarioFile, parse_scenario_file, \
    parse_scenario_text
from .simulate import (Scenario, Trajectory, csv_header,
                       default_steady_window, export_csv,
                       measure_quasi_sliding, run, run_batch)
from .surface import (CertReport, NormalForm, SurfaceDesign, build_surface,
                      certify_surface_over_T, from_normal_coords,
                      input_annihilator, to_normal_coords)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolation", "AugmentedSystem", "BenchmarkReport",
    "BenchmarkRun", "CertReport", "ConfigError", "ContinuousPlant",
    "ControllerState", "DiffReport", "DiscretePlant", "DisturbanceRangeError",
    "DisturbanceSampler", "DisturbanceSignal", "DivergenceError", "GainSet",
    "KINDS", "LawTaps", "NoiseSpec", "NormalForm", "ScalingReport", "Scenario",
    "ScenarioError", "ScenarioFile", "Segment", "SpectrumReport",
    "StabilityReport", "StabilityRow", "SurfaceDesign", "SweepPoint",
    "SweepSpec", "Trajectory", "ValidationReport", "WARMUP",
    "Xoshiro256StarStar", "aircraft_benchmark", "augmented_vs_direct",
    "build_aug", "build_surface", "builtin_scenario_path", "certify_surface_over_T",
    "charpoly", "check_memory_spectrum", "closed_loop", "constant_signal",
    "csv_header",
    "default_steady_window", "difference_diagnostics", "discretize",
    "equivalent_control", "export_csv",
    "from_normal_coords", "input_annihilator", "invariant_zeros", "law_taps",
    "load_aircraft_scenario", "make_gains", "matched_residual_split",
    "measure_quasi_sliding", "memory_block", "parse_scenario_file",
    "parse_scenario_text", "reconstruct_g_prev", "run", "run_batch", "run_sweep",
    "stability_over_T", "to_normal_coords",
    "validate_plant", "variant_for_kind", "verify_first_order_memory",
    "verify_second_order_memory", "zero_signal",
]
