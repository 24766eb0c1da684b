"""The fixture rule: every runner reports (got, want), and `run_fixture_file`
passes a fixture iff the two dicts have the same keys and values, naming each
key that differs.  Corrupted copies of the committed fixtures are written to a
temporary fixtures/ directory that `importlib.resources.files` is pointed at."""

import json
from importlib import resources

import pytest

from clustrop import fixture_suite, jsonio
from clustrop.polytopes import qgf_solve

PACKAGE = resources.files("clustrop") / "fixtures"


def load(name):
    return json.loads((PACKAGE / name).read_text())


@pytest.fixture
def fixture_dir(tmp_path, monkeypatch):
    root = tmp_path / "fixtures"
    root.mkdir()
    monkeypatch.setattr(fixture_suite.resources, "files", lambda package: tmp_path)
    return root


def run_corrupted(fixture_dir, name, corrupt):
    fx = load(name)
    corrupt(fx)
    (fixture_dir / name).write_text(json.dumps(fx))
    return fixture_suite.run_fixture_file(name)


def test_every_runner_kind_has_a_committed_fixture():
    kinds = {load(name)["kind"] for name in fixture_suite.fixture_names()}
    assert kinds == set(fixture_suite._RUNNERS)


def _set(path, value):
    def corrupt(fx):
        *keys, last = path
        for k in keys:
            fx = fx[k]
        fx[last] = value
    return corrupt


@pytest.mark.parametrize(
    "name, corrupt, detail",
    [
        ("gls_g2.json", _set(("expected", "rows", "3", 4), 2), "row 3: [-1, 1, 0, -1, 1, 0] != [-1, 1, 0, -1, 2, 0]"),
        ("quiver_a5.json", lambda fx: fx["expected"]["arrows"].pop(0), "arrow 1->2: 1 != None"),
        ("quiver_a5.json", lambda fx: fx["expected"]["arrows"].append([99, 98, 1]), "arrow 99->98: None != 1"),
        ("qgf_figure.json", _set(("positive", "size"), 3), "size: 2 != 3"),
        ("ft_a22.json", _set(("expected", "b2_zero"), False), "b2_zero: True != False"),
        ("family_2stage.json", _set(("expected", "dual_counts"), [21, 24]), "dual_counts: [21, 23] != [21, 24]"),
    ],
    ids=["matrix-row", "missing-arrow", "extra-arrow", "qgf-size", "ft-flag", "family-count"],
)
def test_corrupted_fixture_names_the_differing_key(fixture_dir, name, corrupt, detail):
    result = run_corrupted(fixture_dir, name, corrupt)
    assert (result.name, result.passed, result.detail) == (name.removesuffix(".json"), False, detail)


def test_shortened_sequence_fails_one_detail_per_row(fixture_dir):
    result = run_corrupted(fixture_dir, "mutseq_g2.json", lambda fx: fx["seq"].pop())
    parts = result.detail.split("; ")
    assert not result.passed and parts
    assert all(part.startswith("row ") for part in parts)
    assert [part.split(":")[0] for part in parts] == sorted(part.split(":")[0] for part in parts)


def test_refused_positive_is_reported_by_its_reason(fixture_dir):
    def swap(fx):
        fx["positive"]["vertices"], fx["negative"]["vertices"] = fx["negative"]["vertices"], fx["positive"]["vertices"]

    result = run_corrupted(fixture_dir, "qgf_figure.json", swap)
    _, reason = qgf_solve(jsonio.polytope_from_obj(load("qgf_figure.json")["negative"]))
    assert not result.passed
    assert result.detail == (
        f"center: None != ['0', '0']; negative: certified != refused; positive: {reason} != certified; size: None != 2"
    )


def test_malformed_fixture_files_fail_alone(fixture_dir):
    """A file that is not a JSON object, names an unhashable or unknown kind,
    or is not UTF-8 fails as its own line; the other fixtures still run."""
    (fixture_dir / "a_list.json").write_text("[]")
    (fixture_dir / "b_kind.json").write_text('{"kind": ["x"]}')
    (fixture_dir / "c_bytes.json").write_bytes(b'{"kind": "\xff"}')
    (fixture_dir / "d_unknown.json").write_text('{"kind": "nope"}')
    (fixture_dir / "gls_g2.json").write_text((PACKAGE / "gls_g2.json").read_text())
    results = fixture_suite.fixture_suite()
    assert [(r.name, r.passed) for r in results] == [
        ("a_list.json", False), ("b_kind.json", False), ("c_bytes.json", False), ("d_unknown.json", False),
        ("gls_g2", True),
    ]
    assert all(r.detail.startswith("unreadable fixture: ") for r in results[:4])
