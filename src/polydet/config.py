"""Run configuration and deterministic reports for the CLI."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field

from .errors import ValidationFailure
from .eigensolve import faber_krahn_bound
from .geometry import json_float, load_json
from .zetadet import ZetaConfig

_LAMBDA_MAX_FACTOR = 28.0   # default lambda_max = factor / tau0


@dataclass(frozen=True)
class RunConfig:
    zeta: ZetaConfig = field(default_factory=ZetaConfig)
    lambda_max: float = None      # None: _LAMBDA_MAX_FACTOR / tau0

    def to_dict(self):
        return {"zeta": dataclasses.asdict(self.zeta), "lambda_max": self.lambda_max}

    def hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def pipeline_zeta(self, p):
        """Coordinated (lambda_max, ZetaConfig) for the determinant pipeline.

        tau0 is set so the short-time replacement error exp(-beta2/tau0) is
        negligible (beta2 ~ squared narrowest width), and lambda_max so that
        lambda_max * tau0 covers the tail-model decay budget.
        """
        # r_in >= A/P for convex domains, so 2A/P bounds the narrowest width
        width = 2 * p.area / p.perimeter
        tau0 = self.zeta.tau0 if self.zeta.tau0 is not None else width**2 / 14.0
        lam_max = self.lambda_max if self.lambda_max is not None \
            else _LAMBDA_MAX_FACTOR / tau0
        lam1_bound = faber_krahn_bound(p)
        if not (math.isfinite(lam_max) and lam_max >= 10 * lam1_bound):
            raise ValidationFailure(
                f"lambda_max {lam_max:.1f} is not finite or below 10x the Faber-Krahn "
                f"bound {lam1_bound:.1f} on the first eigenvalue")
        return lam_max, dataclasses.replace(self.zeta, tau0=tau0)


def config_from_file(path):
    """RunConfig from a JSON file of (nested) overrides; each settable key is
    checked once, in the order lambda_max, zeta.tau0, zeta.tail_tol."""
    raw = _json_object(load_json(path), "", ("lambda_max", "zeta"))
    zeta = _json_object(raw.get("zeta", {}), "zeta.", ("tau0", "tail_tol"))
    return RunConfig(lambda_max=_number(raw, "", "lambda_max", None),
                     zeta=ZetaConfig(_number(zeta, "zeta.", "tau0", None),
                                     _number(zeta, "zeta.", "tail_tol", ZetaConfig.tail_tol)))


def _json_object(raw, prefix, keys):
    """raw; ValidationFailure unless it is a JSON object whose keys are all
    among keys."""
    if not isinstance(raw, dict):
        raise ValidationFailure(f"config {prefix.rstrip('.') or 'file'} must be a JSON object")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ValidationFailure(f"unknown config key {prefix}{unknown[0]}")
    return raw


def _number(raw, prefix, name, default):
    """raw[name] made a float, so 28 and 28.0 give one config hash; default
    if name is absent, or null where the default is None.  ValidationFailure
    unless the value is a finite (json_float) positive number."""
    v = raw.get(name)
    if name not in raw or (v is None and default is None):
        return default
    what = f"config key {prefix}{name}"
    v = json_float(v, what, "finite and positive")
    if not v > 0:
        raise ValidationFailure(f"{what} must be finite and positive, not {v!r}")
    return v


@dataclass
class Report:
    command: list
    config_hash: str
    payload: dict
    diagnostics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps({
            "command": self.command,
            "config_hash": self.config_hash,
            "payload": self.payload,
            "diagnostics": self.diagnostics,
            "timings": self.timings,
        }, indent=2, sort_keys=True)

    def to_csv(self):
        """Flat key,value dump of the payload (., decimal; CSV quoting; \\n endings)."""
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [("key", "value")] + sorted(_flatten(self.payload).items()))
        return buf.getvalue()


def _flatten(d, prefix=""):
    """d with dotted keys; lists of objects go by index (records.0.criterion)."""
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, (list, tuple)) and any(isinstance(x, dict) for x in v):
            v = dict(enumerate(v))
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        elif isinstance(v, (list, tuple)):
            out[key] = ";".join(str(x) for x in v)
        else:
            out[key] = v
    return out


class Timer:
    def __init__(self):
        self.marks = {}
        self._t0 = time.perf_counter()

    def mark(self, name):
        self.marks[name] = round(time.perf_counter() - self._t0, 6)
        self._t0 = time.perf_counter()
