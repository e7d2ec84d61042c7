"""Scenario file parsing.

Line-oriented key/value document with [section] headers; chosen over a
general markup language so every parse error can name its section, key and
line.  Full-line comments start with '#'.  Sections:

  [plant]        file = <path relative to the scenario file>
                 -- or inline --  A = r ; r ; ...   B = ...   C = ...
                 x0 = v1 v2 ... (optional initial state, default zeros)
  [surface]      H = r ; r
  [controller]   kind = eq|m1|m2|mm1|mm2, alpha and/or beta
  [timing]       T, horizon
  [disturbance]  segment = t0 t1 : form ; form ; ...   (repeatable, ordered)
                 forms: zero | const c | sin offset amp omega phase
                        | cos amp omega        (t1 may be 'inf')
  [noise]        kind = none|uniform, halfwidth, seed
  [outputs]      directory, formats (space-separated: csv summary svg)

Missing [disturbance] means no disturbance; missing [noise] means none.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .controllers import KINDS
from .errors import ConfigError
from .matio import (MatrixFormatError, parse_matrix, parse_vector,
                    read_plant_file)
from .plant import (ConstForm, ContinuousPlant, CosForm, DisturbanceSignal,
                    NoiseSpec, Segment, SinForm, ZeroForm)
from .simulate import Scenario

_SECTIONS = ("plant", "surface", "controller", "timing", "disturbance",
             "noise", "outputs")
OUTPUT_FORMATS = ("csv", "summary", "svg")


class ScenarioError(ConfigError):
    def __init__(self, message, section=None, key=None, line=None):
        loc = []
        if section:
            loc.append(f"section [{section}]")
        if key:
            loc.append(f"key {key!r}")
        if line is not None:
            loc.append(f"line {line}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)
        self.section = section
        self.key = key
        self.line = line


@dataclass
class ScenarioFile:
    scenario: Scenario
    out_dir: str = "out"
    formats: tuple = ("csv", "summary")
    path: str | None = None


def _parse_float(value, section, key, line):
    try:
        return float(value)
    except ValueError:
        raise ScenarioError(f"expected number, got {value!r}",
                            section, key, line) from None


def _parse_form(token: str, section, line):
    parts = token.split()
    name = parts[0] if parts else ""
    args = parts[1:]
    try:
        if name == "zero" and not args:
            return ZeroForm()
        if name == "const" and len(args) == 1:
            return ConstForm(float(args[0]))
        if name == "sin" and len(args) == 4:
            return SinForm(*(float(a) for a in args))
        if name == "cos" and len(args) == 2:
            return CosForm(float(args[0]), float(args[1]))
    except ValueError:
        raise ScenarioError(f"bad numeric argument in form {token!r}",
                            section, "segment", line) from None
    raise ScenarioError(
        f"unknown disturbance form {token!r} (want: zero | const c | "
        f"sin offset amp omega phase | cos amp omega)", section, "segment", line)


def _parse_segment(value: str, line: int) -> Segment:
    if ":" not in value:
        raise ScenarioError("segment needs 't0 t1 : forms'",
                            "disturbance", "segment", line)
    times, forms_text = value.split(":", 1)
    parts = times.split()
    if len(parts) != 2:
        raise ScenarioError("segment needs exactly two times before ':'",
                            "disturbance", "segment", line)
    t0 = _parse_float(parts[0], "disturbance", "segment", line)
    t1 = math.inf if parts[1].lower() in ("inf", "+inf") else \
        _parse_float(parts[1], "disturbance", "segment", line)
    forms = tuple(_parse_form(tok.strip(), "disturbance", line)
                  for tok in forms_text.split(";"))
    return Segment(t0, t1, forms)


def _tokenize(text: str):
    """Yield (line_no, section, key, value) triples."""
    section = None
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ScenarioError(f"unknown section [{section}]", line=i)
            yield i, section, None, None
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {line!r}",
                                section, line=i)
        if section is None:
            raise ScenarioError("key before any [section] header", line=i)
        key, value = line.split("=", 1)
        yield i, section, key.strip().lower(), value.strip()


def parse_scenario_text(text: str, base_dir: str = ".") -> ScenarioFile:
    data: dict = {s: {} for s in _SECTIONS}
    lines: dict = {}
    segments: list = []
    for i, section, key, value in _tokenize(text):
        if key is None:
            continue
        if section == "disturbance" and key == "segment":
            segments.append((i, _parse_segment(value, i)))
            continue
        if key in data[section]:
            raise ScenarioError(f"duplicate key {key!r}", section, key, i)
        data[section][key] = value
        lines[(section, key)] = i

    def where(section, key):
        return lines.get((section, key))

    def take(section, key, default=None, required=False):
        if key in data[section]:
            return data[section].pop(key)
        if required:
            raise ScenarioError(f"missing required key {key!r}", section, key)
        return default

    # --- plant ---
    if "file" in data["plant"]:
        rel = take("plant", "file")
        path = rel if os.path.isabs(rel) else os.path.join(base_dir, rel)
        try:
            A, B, C = read_plant_file(path)
        except (OSError, MatrixFormatError) as exc:
            raise ScenarioError(f"cannot read plant file {rel!r}: {exc}",
                                "plant", "file", where("plant", "file")) from None
    else:
        mats = []
        for key in ("a", "b", "c"):
            text_m = take("plant", key, required=True)
            try:
                mats.append(parse_matrix(text_m))
            except MatrixFormatError as exc:
                raise ScenarioError(str(exc), "plant", key.upper(),
                                    where("plant", key)) from None
        A, B, C = mats
    try:
        plant = ContinuousPlant(A, B, C)
    except ConfigError as exc:
        raise ScenarioError(str(exc), "plant") from None

    x0 = None
    if "x0" in data["plant"]:
        try:
            x0 = parse_vector(take("plant", "x0"))
        except MatrixFormatError as exc:
            raise ScenarioError(str(exc), "plant", "x0", where("plant", "x0")) from None
        if x0.shape != (plant.n,):
            raise ScenarioError(f"x0 must have {plant.n} entries, got {x0.size}",
                                "plant", "x0", where("plant", "x0"))

    # --- surface ---
    h_text = take("surface", "h", required=True)
    try:
        H = parse_matrix(h_text)
    except MatrixFormatError as exc:
        raise ScenarioError(str(exc), "surface", "H", where("surface", "h")) from None
    if H.shape != (plant.m, plant.p):
        raise ScenarioError(
            f"H must be {plant.m}x{plant.p} for this plant, got "
            f"{H.shape[0]}x{H.shape[1]}", "surface", "H", where("surface", "h"))

    # --- controller ---
    kind = take("controller", "kind", required=True).lower()
    if kind not in KINDS:
        raise ScenarioError(f"unknown controller kind {kind!r}",
                            "controller", "kind", where("controller", "kind"))
    alpha = take("controller", "alpha")
    beta = take("controller", "beta")
    if alpha is None and beta is None:
        raise ScenarioError("need alpha or beta", "controller", "alpha")
    alpha = None if alpha is None else _parse_float(alpha, "controller", "alpha",
                                                    where("controller", "alpha"))
    beta = None if beta is None else _parse_float(beta, "controller", "beta",
                                                  where("controller", "beta"))

    # --- timing ---
    T = _parse_float(take("timing", "t", required=True), "timing", "T",
                     where("timing", "t"))
    horizon = _parse_float(take("timing", "horizon", required=True),
                           "timing", "horizon", where("timing", "horizon"))
    # before anything divides or multiplies by T
    for key, value in (("T", T), ("horizon", horizon)):
        if not 0 < value < math.inf:
            raise ScenarioError(f"{key} must be finite and positive, got {value}",
                                "timing", key, where("timing", key.lower()))

    if alpha is not None and beta is not None and abs((1 - alpha) - beta * T) > 1e-12:
        raise ScenarioError(
            f"alpha and beta disagree: 1 - alpha = {1 - alpha}, beta T = {beta * T}",
            "controller", "alpha", where("controller", "alpha"))

    # --- disturbance ---
    disturbance = None
    if segments:
        segments.sort(key=lambda ls: ls[1].t_start)
        seg_sorted = tuple(seg for _, seg in segments)
        if any(len(s.forms) != plant.m for s in seg_sorted):
            raise ScenarioError(
                f"each segment needs {plant.m} channel forms", "disturbance", "segment")
        try:
            disturbance = DisturbanceSignal(seg_sorted)
        except ConfigError as exc:
            raise ScenarioError(str(exc), "disturbance", "segment") from None

    # --- noise ---
    noise_kind = take("noise", "kind", default="none").lower()
    halfwidth = _parse_float(take("noise", "halfwidth", default="0"),
                             "noise", "halfwidth", where("noise", "halfwidth"))
    seed_text = take("noise", "seed", default="0")
    try:
        seed = int(seed_text)
    except ValueError:
        raise ScenarioError(f"expected integer seed, got {seed_text!r}",
                            "noise", "seed", where("noise", "seed")) from None
    try:
        noise = NoiseSpec(kind=noise_kind, halfwidth=halfwidth, seed=seed)
    except ConfigError as exc:
        raise ScenarioError(str(exc), "noise", "kind", where("noise", "kind")) from None

    # --- outputs ---
    out_dir = take("outputs", "directory", default="out")
    formats = tuple(take("outputs", "formats", default="csv summary").split())
    for token in formats:
        if token not in OUTPUT_FORMATS:
            raise ScenarioError(
                f"unknown output format {token!r}; expected some of "
                f"{' '.join(OUTPUT_FORMATS)}", "outputs", "formats",
                where("outputs", "formats"))

    for section in _SECTIONS:
        for key in data[section]:
            raise ScenarioError(f"unknown key {key!r}", section, key,
                                where(section, key))

    # every check Scenario makes has been made above, with its location
    scenario = Scenario(plant=plant, H=H, kind=kind, T=T, horizon=horizon,
                        disturbance=disturbance, noise=noise, alpha=alpha,
                        beta=beta, x0=x0)
    if disturbance is not None and disturbance.t_end < horizon:
        # the first sample whose hold interval leaves the segments
        t_end = disturbance.t_end
        k = int(math.floor(t_end / T + 1e-9))
        raise ScenarioError(
            f"segments end at t = {t_end}, before the horizon {horizon}: "
            f"sample {k} covers [{k * T}, {(k + 1) * T}) with no disturbance",
            "disturbance", "segment", segments[-1][0])
    return ScenarioFile(scenario=scenario, out_dir=out_dir, formats=formats)


def parse_scenario_file(path) -> ScenarioFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from None
    sf = parse_scenario_text(text, base_dir=os.path.dirname(os.path.abspath(path)))
    sf.path = str(path)
    return sf
