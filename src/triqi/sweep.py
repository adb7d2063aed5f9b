"""Parameter sweeps over the bound and audit quantities.

A sweep is a cross product over named axes applied on top of fixed protocol
parameters.  Row order is lexicographic over the axes as declared, regardless
of worker count, and per-point failures land in an error column instead of
aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from numbers import Real
from pathlib import Path

import numpy as np

from . import bounds, overlap_audit, textfmt
from .errors import NumericalError, ResourceError, TriqiError
from .states import ProtocolParams, build_hypothesis_pair, params_from_mapping

MAX_POINTS = 100_000

PARAM_AXES = ("theta", "eta", "nbar", "nbar2", "nbar3", "background", "idler")
EXTRA_AXES = ("kappa", "n_signal", "M")
AXIS_NAMES = PARAM_AXES + EXTRA_AXES

BOUND_OUTPUTS = ("s_star", "q_star", "exponent", "q_half", "helstrom",
                 "p3g", "p2g", "ratio")
AUDIT_OUTPUTS = ("t_paper", "t_papersign", "t_principal", "verdict")
DEFAULT_OUTPUTS = ("exponent", "q_half", "helstrom", "p3g", "p2g", "ratio")

FLAG_COLUMNS = ("flags.high_noise", "flags.small_theta", "flags.small_eta",
                "flags.eta_vs_invn2")


@dataclass(frozen=True)
class SweepSpec:
    """Axes, fixed parameters and requested outputs of one sweep.  ``workers``
    is set from Python only, for the pool probe of ``bench/run.py --trace 1``."""

    axes: tuple[tuple[str, tuple], ...]
    fixed: ProtocolParams
    outputs: tuple[str, ...] = DEFAULT_OUTPUTS
    fmt: str = "csv"
    m_shots: int = 1
    workers: int = 1

    def __post_init__(self):
        bounds.check_shot_count(self.m_shots)
        for name, values in self.axes:
            if name not in AXIS_NAMES:
                raise ValueError(f"unknown axis {name!r}; valid axes: {AXIS_NAMES}")
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            for value in values:
                # a parsed config cell is typed by its text: "" is None, "true" is True
                if name == "M":
                    bounds.check_shot_count(value)
                elif name in ("background", "idler"):
                    if not isinstance(value, str):
                        raise ValueError(f"axis {name!r} takes names, got {value!r}")
                elif isinstance(value, bool) or not isinstance(value, Real):
                    raise ValueError(f"axis {name!r} takes numbers, got {value!r}")
        n_points = self.n_points
        if n_points > MAX_POINTS:
            raise ValueError(f"sweep has {n_points} points, above the cap {MAX_POINTS}")
        known = BOUND_OUTPUTS + AUDIT_OUTPUTS
        bad = [o for o in self.outputs if o not in known]
        if bad:
            raise ValueError(f"unknown outputs {bad}; valid outputs: {known}")
        if self.fmt not in ("csv", "text"):
            raise ValueError(f"format must be csv or text, got {self.fmt!r}")

    @property
    def n_points(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n

    @classmethod
    def from_file(cls, path) -> "SweepSpec":
        return cls.from_mapping(textfmt.parse_key_values(Path(path).read_text()))

    @classmethod
    def from_mapping(cls, values: dict[str, str]) -> "SweepSpec":
        """Build a spec from ``key=value`` text with ``axis.<name>=v1,v2,...`` lines."""
        values = dict(values)
        axes = []
        for key in list(values):
            if key.startswith("axis."):
                name = key[len("axis."):]
                raw = values.pop(key)
                vals = tuple(textfmt.parse_value(v.strip()) for v in raw.split(","))
                axes.append((name, vals))
        spec_kwargs: dict = {}
        if "outputs" in values:
            spec_kwargs["outputs"] = tuple(v.strip() for v in values.pop("outputs").split(","))
        if "format" in values:
            spec_kwargs["fmt"] = values.pop("format")
        if "M" in values:
            spec_kwargs["m_shots"] = textfmt.parse_value(values.pop("M"))
        fixed = params_from_mapping(values)
        return cls(axes=tuple(axes), fixed=fixed, **spec_kwargs)


@dataclass(frozen=True)
class SweepTable:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def _point_params(spec: SweepSpec, values: dict) -> tuple[ProtocolParams, dict]:
    updates = {}
    extras = {"kappa": None, "n_signal": None, "m_shots": spec.m_shots}
    for name, value in values.items():
        if name == "nbar":
            updates["nbar2"] = updates["nbar3"] = float(value)
        elif name in ("theta", "eta", "nbar2", "nbar3"):
            updates[name] = float(value)
        elif name in ("background", "idler"):
            updates[name] = str(value)
        elif name == "kappa":
            extras["kappa"] = float(value)
        elif name == "n_signal":
            extras["n_signal"] = float(value)
        elif name == "M":
            extras["m_shots"] = value
    return spec.fixed.with_updates(**updates), extras


def _evaluate_row(spec: SweepSpec, point: tuple) -> tuple:
    values = dict(zip([name for name, _ in spec.axes], point))
    row = list(point)
    try:
        params, extras = _point_params(spec, values)
        record: dict = {}
        # an audit-only row leaves the build to the audit, which records its
        # failure as incomplete instead of failing the row
        pair = None
        if any(o in BOUND_OUTPUTS for o in spec.outputs):
            pair = build_hypothesis_pair(params)
            report = bounds.evaluate_point(params, m_shots=extras["m_shots"],
                                           kappa=extras["kappa"], n_signal=extras["n_signal"],
                                           pair=pair)
            record.update(report.as_record())
        if any(o in AUDIT_OUTPUTS for o in spec.outputs):
            record.update(overlap_audit.audit_overlap(params, pair=pair).as_record())
        row.extend(record.get(o) for o in spec.outputs)
        flags = params.regime_flags().as_dict()
        row.extend(flags[c.split(".", 1)[1]] for c in FLAG_COLUMNS)
        row.append("")
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, so caught first
        error = NumericalError(f"linear algebra failure: {exc}")
    except (TriqiError, ValueError) as exc:
        error = exc
    except MemoryError as exc:
        error = ResourceError(f"out of memory: {exc}")
    else:
        return tuple(row)
    row.extend([None] * (len(spec.outputs) + len(FLAG_COLUMNS)))
    row.append(f"{type(error).__name__}: {error}")
    return tuple(row)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the sweep; one row per grid point in lexicographic axis order."""
    columns = tuple(name for name, _ in spec.axes) + tuple(spec.outputs) \
        + FLAG_COLUMNS + ("error",)
    points = list(product(*[values for _, values in spec.axes]))
    if spec.workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only pooled sweeps pay its import
        with ThreadPoolExecutor(max_workers=spec.workers) as pool:
            rows = list(pool.map(lambda pt: _evaluate_row(spec, pt), points))
    else:
        rows = [_evaluate_row(spec, pt) for pt in points]
    return SweepTable(columns, tuple(rows))


def render(table: SweepTable, fmt: str) -> str:
    if fmt == "csv":
        return textfmt.format_csv(table.columns, table.rows)
    if fmt == "text":
        record: dict = {"columns": list(table.columns), "rows": len(table.rows)}
        for i, row in enumerate(table.rows):
            for col, val in zip(table.columns, row):
                record[f"row.{i}.{col}"] = val
        return textfmt.format_record(record)
    raise ValueError(f"unknown format {fmt!r}")
