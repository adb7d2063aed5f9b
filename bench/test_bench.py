"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest bench``.
"""

import math

import check
import run
import spans

T = run.load_triqi()


def test_same_seed_generates_same_point_grid(tmp_path):
    a, b = run.PointGrid(T, 7, tmp_path), run.PointGrid(T, 7, tmp_path)
    assert a.points == b.points
    other = run.PointGrid(T, 8, tmp_path)
    assert other.points != a.points
    # the seed draws no nbar: whether a flat-background point fails depends on it
    assert dict(other.axes)["nbar"] == dict(a.axes)["nbar"]
    assert len(a.points) >= 200
    axes = dict(a.axes)
    assert axes["theta"][0] == 0.0 and axes["theta"][-1] == math.pi / 2
    assert axes["eta"][0] == 0.0 and axes["eta"][-1] == 1.0
    assert set(axes["background"]) == {"thermal", "flat"}
    assert set(axes["idler"]) == {"paper_pure", "traced"}


def test_golden_reference_matches_itself_and_catches_perturbations():
    ref = (run.BENCH_DIR / "golden_reference.csv").read_text()
    header, *rows = ref.splitlines()
    failed, compared, mismatches = check.compare_csv_rows(header, rows, ref)
    assert not any(failed) and mismatches == 0 and compared == len(rows) * len(header.split(","))

    cells = rows[2].split(",")
    cells[4] = repr(float(cells[4]) + 1e-9)  # q_half
    cells[-2] = "true" if cells[-2] == "false" else "false"  # a regime flag
    perturbed = rows[:2] + [",".join(cells)] + rows[3:]
    failed, _, mismatches = check.compare_csv_rows(header, perturbed, ref)
    assert failed == [i == 2 for i in range(len(rows))] and mismatches == 2

    cells = rows[0].split(",")
    cells[-1] = "NumericalError: boom"
    failed, _, _ = check.compare_csv_rows(header, [",".join(cells)] + rows[1:], ref)
    assert failed[0]
    assert all(check.compare_csv_rows(header, rows[:-1], ref)[0])


def _small_grid(tmp_path):
    grid = run.PointGrid(T, 3, tmp_path)
    grid.points = grid.points[:2]  # theta = 0, where both lanes agree
    return grid


def test_perturbed_output_counts_as_failed(tmp_path):
    grid = _small_grid(tmp_path)
    clean = grid.run_pass()
    assert run.account(grid, [clean]) == (2, 0, True, 6, 0)

    out = clean.outputs[0]
    perturbed = run.Pass(clean.wall, clean.latencies,
                         [out._replace(q_half=out.q_half + 1e-9), clean.outputs[1]])
    attempted, failed, deterministic, _, mismatches = run.account(grid, [perturbed])
    assert (attempted, failed, deterministic, mismatches) == (2, 1, True, 1)
    # a later pass that does not reproduce the first one fails too
    attempted, failed, deterministic, _, _ = run.account(grid, [clean, perturbed])
    assert (attempted, failed, deterministic) == (2, 1, False)


def test_raised_triqi_error_counts_as_failed(tmp_path, monkeypatch):
    grid = _small_grid(tmp_path)

    def fail(params, **kwargs):
        raise T.triqi.NumericalError("secular solve did not converge")

    monkeypatch.setattr(T.bounds, "evaluate_point", fail)
    result = grid.run_pass()
    assert all(isinstance(o, run.Raised) and "NumericalError" in o.error for o in result.outputs)
    assert run.account(grid, [result]) == (2, 2, True, 0, 0)


def test_self_time_on_hand_built_span_tree():
    S = spans.Span
    tree = [
        S(0, "root", 0.0, 10.0, -1, "p"),
        S(1, "a", 1.0, 4.0, 0, "p"),
        S(2, "b", 3.0, 6.0, 0, "p"),  # overlaps a: together they cover [1, 6]
        S(3, "c", 2.0, 3.0, 1, "p"),
        S(4, "a", 9.0, 12.0, 0, "p"),  # only [9, 10] lies inside root
    ]
    assert spans.self_times(tree) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}
    summary = spans.layer_summary(tree, ["root", "a", "unused"], passes=2)
    assert summary == {"root": (4.0, 0.5), "a": (2.5, 1.0), "unused": (0.0, 0.0)}


def test_installed_tracer_nests_spans_and_restores_functions():
    pair = T.states.build_hypothesis_pair(T.presets.GOLDEN_POINT)
    d0, d1 = run._dense_copy(T, pair.rho0), run._dense_copy(T, pair.rho1)
    original_q_s, original_eigh = T.bounds.q_s, T.spectral.eigh
    tracer = spans.Tracer()
    targets = [("q", T.bounds, "q_s", None), ("eigh", T.spectral, "eigh", None)]
    with spans.installed(tracer, targets):
        traced = T.bounds.q_s(d0, d1, 0.5)
    assert T.bounds.q_s is original_q_s and T.spectral.eigh is original_eigh
    assert T.bounds.eigh is original_eigh
    assert traced == T.bounds.q_s(d0, d1, 0.5)
    root, *children = tracer.spans
    assert root.name == "q" and root.parent == -1
    assert [c.name for c in children] == ["eigh", "eigh"]
    assert all(c.parent == root.id for c in children)
