"""Sampled-data output-feedback sliding mode control laboratory.

Discretize a linear MIMO plant under zero-order hold, design an output
switching surface, and close the loop with one of several discrete sliding
mode controllers that differ in how they estimate the unmeasured
disturbance-plus-drift term.  Companion analysis tools certify the surface
construction, compute the spectra of the closed loops the simulator runs,
and measure empirical accuracy orders over sampling-period ladders.
"""

from .analysis import (SpectrumReport, StabilityReport, StabilityRow,
                       build_aug, charpoly, check_memory_spectrum,
                       memory_block, stability_over_T)
from .controllers import (KINDS, WARMUP, ControllerState, LawTaps, Loop,
                          closed_loop, contraction_alpha, law_taps)
from .discretization import (DiffReport, DiscretePlant, DisturbanceSampler,
                             difference_diagnostics, discretize)
from .errors import (AssumptionViolation, ConfigError, DisturbanceRangeError,
                     DivergenceError)
from .experiments import (BenchmarkReport, BenchmarkRun, ScalingReport,
                          SweepPoint, SweepSpec, aircraft_benchmark,
                          builtin_scenario_path, load_aircraft_scenario,
                          run_sweep)
from .plant import (ContinuousPlant, DisturbanceSignal, NoiseSpec, Segment,
                    constant_signal, invariant_zeros, zero_signal)
from .rng import Xoshiro256StarStar
from .scenario import ScenarioError, ScenarioFile, parse_scenario_file, \
    parse_scenario_text
from .simulate import (Scenario, Trajectory, csv_header,
                       default_steady_window, export_csv,
                       measure_quasi_sliding, run, run_batch,
                       run_batches)
from .surface import NormalForm, SurfaceDesign, build_surface, input_annihilator

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolation", "BenchmarkReport",
    "BenchmarkRun", "ConfigError", "ContinuousPlant",
    "ControllerState", "DiffReport", "DiscretePlant", "DisturbanceRangeError",
    "DisturbanceSampler", "DisturbanceSignal", "DivergenceError",
    "KINDS", "LawTaps", "Loop", "NoiseSpec", "NormalForm", "ScalingReport",
    "Scenario", "ScenarioError", "ScenarioFile", "Segment", "SpectrumReport",
    "StabilityReport", "StabilityRow", "SurfaceDesign", "SweepPoint",
    "SweepSpec", "Trajectory", "WARMUP",
    "Xoshiro256StarStar", "aircraft_benchmark",
    "build_aug", "build_surface", "builtin_scenario_path",
    "charpoly", "check_memory_spectrum", "closed_loop", "constant_signal",
    "contraction_alpha",
    "csv_header",
    "default_steady_window", "difference_diagnostics", "discretize",
    "export_csv",
    "input_annihilator", "invariant_zeros", "law_taps",
    "load_aircraft_scenario",
    "measure_quasi_sliding", "memory_block", "parse_scenario_file",
    "parse_scenario_text", "run", "run_batch", "run_batches", "run_sweep",
    "stability_over_T", "zero_signal",
]
