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
# (section, key) in a scenario file of each field that Scenario, NoiseSpec
# or DisturbanceSignal refuses (ConfigError.field)
_SCENARIO_FIELDS = {"x0": ("plant", "x0"), "H": ("surface", "H"),
                    "alpha": ("controller", "alpha"), "T": ("timing", "T"),
                    "horizon": ("timing", "horizon"),
                    "disturbance": ("disturbance", "segment"),
                    "kind": ("noise", "kind"), "halfwidth": ("noise", "halfwidth"),
                    "seed": ("noise", "seed")}


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


def _parse_float(value, section=None, key=None, line=None):
    try:
        return float(value)
    except ValueError:
        raise ScenarioError(f"expected number, got {value!r}",
                            section, key, line) from None


# each disturbance form and its number of parameters
_FORMS = {"zero": (ZeroForm, 0), "const": (ConstForm, 1), "sin": (SinForm, 4),
          "cos": (CosForm, 2)}


def _parse_segment(value: str) -> Segment:
    """The Segment of a segment line; its caller locates a refusal."""
    if ":" not in value:
        raise ConfigError("segment needs 't0 t1 : forms'")
    times, forms_text = value.split(":", 1)
    parts = times.split()
    if len(parts) != 2:
        raise ConfigError("segment needs exactly two times before ':'")
    forms = []
    for token in (tok.strip() for tok in forms_text.split(";")):
        name, *args = token.split() or [""]
        form, arity = _FORMS.get(name, (None, None))
        if len(args) != arity:
            raise ConfigError(
                f"unknown disturbance form {token!r} (want: zero | const c | "
                f"sin offset amp omega phase | cos amp omega)")
        try:
            params = [float(a) for a in args]
        except ValueError:
            raise ConfigError(f"bad numeric argument in form {token!r}") from None
        forms.append(form(*params))   # a form refuses a non-finite parameter
    return Segment(*(_parse_float(t) for t in parts), tuple(forms))


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
            try:
                segments.append((i, _parse_segment(value)))
            except ConfigError as exc:
                raise ScenarioError(str(exc), section, key, i) from None
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

    def number(section, key, default=None, required=False):
        value = take(section, key.lower(), default, required)
        return None if value is None else \
            _parse_float(value, section, key, where(section, key.lower()))

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
        # a plant file is one key; inline, the refused matrix is its own key
        key = "file" if ("plant", "file") in lines else exc.field
        raise ScenarioError(str(exc), "plant", key,
                            where("plant", key and key.lower())) from None

    x0 = None
    if "x0" in data["plant"]:
        try:
            x0 = parse_vector(take("plant", "x0"))
        except MatrixFormatError as exc:
            raise ScenarioError(str(exc), "plant", "x0", where("plant", "x0")) from None

    # --- surface ---
    h_text = take("surface", "h", required=True)
    try:
        H = parse_matrix(h_text)
    except MatrixFormatError as exc:
        raise ScenarioError(str(exc), "surface", "H", where("surface", "h")) from None

    # --- controller ---
    kind = take("controller", "kind", required=True).lower()
    if kind not in KINDS:
        raise ScenarioError(f"unknown controller kind {kind!r}",
                            "controller", "kind", where("controller", "kind"))
    alpha, beta = number("controller", "alpha"), number("controller", "beta")

    # --- timing ---
    T = number("timing", "T", required=True)
    horizon = number("timing", "horizon", required=True)

    # --- noise ---
    noise_kind = take("noise", "kind", default="none").lower()
    halfwidth = number("noise", "halfwidth", default="0")
    seed_text = take("noise", "seed", default="0")
    try:
        seed = int(seed_text)
    except ValueError:
        raise ScenarioError(f"expected integer seed, got {seed_text!r}",
                            "noise", "seed", where("noise", "seed")) from None

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

    # the value objects hold the rules; a value they refuse is located by
    # its field
    segments.sort(key=lambda ls: ls[1].t_start)
    try:
        disturbance = DisturbanceSignal(tuple(seg for _, seg in segments)) \
            if segments else None
        scenario = Scenario(plant=plant, H=H, kind=kind, T=T, horizon=horizon,
                            disturbance=disturbance,
                            noise=NoiseSpec(noise_kind, halfwidth, seed),
                            alpha=alpha, beta=beta, x0=x0)
    except ConfigError as exc:
        section, key = _SCENARIO_FIELDS.get(exc.field, (None, None))
        raise ScenarioError(str(exc), section, key,
                            where(section, key and key.lower())) from None
    if disturbance is not None and disturbance.t_end < horizon:
        # the first sample whose hold interval leaves the segments; a
        # denormal T overflows the quotient, and then none is named
        t_end, q = disturbance.t_end, disturbance.t_end / T + 1e-9
        gap = (f": sample {(k := math.floor(q))} covers [{k * T}, {(k + 1) * T}) "
               "with no disturbance" if q < math.inf else "")
        raise ScenarioError(
            f"segments end at t = {t_end}, before the horizon {horizon}{gap}",
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
