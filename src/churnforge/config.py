"""Flat key=value pipeline configuration.

One dotted key per line, '#' comments, order-insensitive. Unknown keys
are fatal so typos cannot silently fall back to defaults. The resolved
config renders canonically (sorted keys) for manifest hashing.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

from .cdr import StudyWindow
from .features import AXIS_TABLE, AxesConfig, ConfigError
from .models import FAMILIES

_SCALARS = {
    "seed": (int, "42"),
    "workers": (int, "1"),
    "out_dir": (str, "out"),
    "data.cdr": (str, ""),
    "data.header": (str, ""),
    "window.start_day": (str, "2024-01-01"),
    "window.total_days": (int, "183"),
    "window.train_months": (int, "4"),
    "window.eval_months": (int, "2"),
    "simgen.n_subscribers": (int, "5000"),
    "simgen.target_churn_fraction": (float, "0.26"),
    "simgen.daily_call_rate": (float, "1.0"),
    "simgen.daily_sms_rate": (float, "2.0"),
    "simgen.alter_pool_size": (int, "1000"),
    "simgen.churn_decay_days": (int, "110"),
    "simgen.competitor_signal_strength": (float, "3.0"),
    "features.short_call_threshold_s": (int, "10"),
    "features.day_start_hour": (int, "8"),
    "features.day_end_hour": (int, "20"),
    "features.denominators": (str, ""),
    # one value; kept so that configs which set it parse and hash as before
    "features.matrix_format": (str, "binary"),
    "selection.n_trees": (int, "100"),
    "selection.max_depth": (int, "12"),
    "selection.k": (int, "100"),
    "models.roster": (str, ",".join(FAMILIES)),
    "cv.folds": (int, "5"),
    "evaluate.threshold": (float, "0.5"),
    "evaluate.bins": (int, "20"),
}


@dataclass
class PipelineConfig:
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        raw = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise ConfigError(
                            f"{path}:{line_no}: expected key=value, got {line!r}")
                    key, _, value = line.partition("=")
                    key = key.strip()
                    if key in raw:
                        raise ConfigError(f"{path}:{line_no}: duplicate key {key}")
                    raw[key] = value.strip()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        cfg = cls(raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for key in self.raw:
            if key in _SCALARS:
                continue
            if key.startswith("features.axes."):
                axis = key[len("features.axes."):]
                if axis not in (k for k, _, _ in AXIS_TABLE):
                    raise ConfigError(f"unknown axis key {key!r}")
                continue
            if key.startswith("models."):
                parts = key.split(".")
                if len(parts) == 3 and parts[1] in FAMILIES \
                        and parts[2] in FAMILIES[parts[1]].params:
                    continue
            raise ConfigError(f"unknown config key {key!r}")
        # force type errors now rather than mid-pipeline
        for key, (typ, _default) in _SCALARS.items():
            if key in self.raw and typ is not str:
                try:
                    typ(self.raw[key])
                except ValueError:
                    raise ConfigError(
                        f"config key {key}={self.raw[key]!r} is not {typ.__name__}")
        if self._get("features.matrix_format") != "binary":
            raise ConfigError("config key features.matrix_format: the only "
                              "matrix format is binary")

    def override(self, key: str, value) -> None:
        self.raw[key] = str(value)

    def _get(self, key: str):
        typ, default = _SCALARS[key]
        return typ(self.raw.get(key, default))

    @property
    def seed(self) -> int:
        return self._get("seed")

    @property
    def workers(self) -> int:
        return max(1, self._get("workers"))

    def window(self) -> StudyWindow:
        try:
            start = datetime.date.fromisoformat(self._get("window.start_day"))
        except ValueError as exc:
            raise ConfigError(f"window.start_day: {exc}") from exc
        return StudyWindow(
            start_day=start,
            total_days=self._get("window.total_days"),
            train_months=self._get("window.train_months"),
            eval_months=self._get("window.eval_months"))

    def axes(self) -> AxesConfig:
        kwargs = {}
        for key, attr, _ in AXIS_TABLE:
            raw = self.raw.get(f"features.axes.{key}", "").strip()
            if raw:
                kwargs[attr] = tuple(
                    t.strip() for t in raw.split(",") if t.strip())
        return AxesConfig(
            short_call_threshold_s=self._get("features.short_call_threshold_s"),
            day_hours=(self._get("features.day_start_hour"),
                       self._get("features.day_end_hour")),
            **kwargs)

    def denominators(self) -> tuple[str, ...]:
        raw = self._get("features.denominators").strip()
        if not raw:
            return ()
        return tuple(t.strip() for t in raw.split(",") if t.strip())

    def roster(self) -> list[str]:
        families = [f.strip() for f in self._get("models.roster").split(",")
                    if f.strip()]
        for f in families:
            if f not in FAMILIES:
                raise ConfigError(f"models.roster: unknown family {f!r}")
        if not families:
            raise ConfigError("models.roster is empty")
        return families

    def model_params(self, family: str) -> dict:
        out = {}
        for pname, param in FAMILIES[family].params.items():
            key = f"models.{family}.{pname}"
            if key in self.raw:
                try:
                    out[pname] = param.type(self.raw[key])
                except ValueError:
                    raise ConfigError(
                        f"config key {key}={self.raw[key]!r} is not "
                        f"{param.type.__name__}")
        return out

    def canonical(self) -> str:
        """Full resolved rendering, suitable for hashing.

        Execution knobs (workers, out_dir) are excluded: they must not
        change what the pipeline produces, so reruns at a different
        worker count hash identically.
        """
        resolved = {k: str(typ(self.raw.get(k, d)))
                    for k, (typ, d) in _SCALARS.items()}
        for key, value in self.raw.items():
            if key not in _SCALARS:
                resolved[key] = value
        for knob in ("workers", "out_dir"):
            resolved.pop(knob, None)
        return "".join(f"{k}={resolved[k]}\n" for k in sorted(resolved))
