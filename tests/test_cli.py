import argparse
import json
from importlib import resources
from pathlib import Path

import pytest

from clustrop import jsonio
from clustrop.cli import build_parser, main
from clustrop.glsseed import gls_exchange_matrix
from clustrop.rootsys import cartan_matrix

NINE = "3,2,3,2,1,2,3,2,1"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_seed_writes_c3_matrix(capsys, tmp_path):
    out = tmp_path / "m.json"
    code, _, _ = run(capsys, "seed", "--type", "C3", "--word", NINE, "--out", str(out))
    assert code == 0
    obj = json.loads(out.read_text())
    assert jsonio.matrix_from_obj(obj) == gls_exchange_matrix(cartan_matrix("C", 3), (3, 2, 3, 2, 1, 2, 3, 2, 1))


def test_mutate_restrict_pipeline(capsys, tmp_path):
    m = tmp_path / "m.json"
    r = tmp_path / "r.json"
    assert run(capsys, "seed", "--type", "C3", "--word", NINE, "--out", str(m))[0] == 0
    assert run(capsys, "restrict", "--in", str(m), "--keep", "1,2,3,6,8", "--out", str(r))[0] == 0
    code, stdout, _ = run(capsys, "mutate", "--in", str(r), "--seq", "6,2,3")
    assert code == 0
    obj = json.loads(stdout)
    assert obj["rows"]["3"] == [-1, 2, 0, -2, 0]


def test_mutation_labels_not_positions(capsys, tmp_path):
    r = tmp_path / "r.json"
    assert run(capsys, "seed", "--type", "C3", "--word", NINE, "--out", str(r))[0] == 0
    code, stdout, _ = run(capsys, "restrict", "--in", str(r), "--keep", "1,2,3,6,8")
    obj = json.loads(stdout)
    assert obj["cols"] == [1, 2, 3, 6, 8]  # labels survive restriction


def test_restrict_refuses_labels_that_are_not_columns(capsys, tmp_path):
    """An unknown --keep label exits 2 like an unknown --seq label, instead of
    being dropped silently."""
    m = tmp_path / "m.json"
    m.write_text('{"cols": [1, 2, 3], "frozen": [3], "d": [1, 1, 1], "rows": {"1": [0, 1, 2], "2": [-1, 0, 1]}}')
    for argv in (["restrict", "--keep", "1,2,99"], ["mutate", "--seq", "1,99"]):
        code, stdout, err = run(capsys, *argv[:1], "--in", str(m), *argv[1:])
        assert (code, stdout, err) == (2, "", "error: unknown label 99\n")


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "mutate", "--seq", "1")
    assert code == 1 and "usage error" in err


def test_parse_error_names_field(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"cols": [1,2], "frozen": [], "d": [1,1]}')
    code, _, err = run(capsys, "mutate", "--in", str(bad), "--seq", "1")
    assert code == 1 and "rows" in err


def test_polytope_qgf_positive_and_negative(capsys, tmp_path):
    good = tmp_path / "p.json"
    good.write_text(json.dumps({"vertices": [["2", "2"], ["2", "-2"], ["-2", "2"], ["-2", "-2"]]}))
    code, stdout, _ = run(capsys, "polytope", "qgf", "--in", str(good))
    assert code == 0
    assert json.loads(stdout)["size"] == 2
    bad = tmp_path / "q.json"
    bad.write_text(json.dumps({"vertices": [["1", "2"], ["1", "-2"], ["-1", "2"], ["-1", "-2"]]}))
    code, stdout, _ = run(capsys, "polytope", "qgf", "--in", str(bad))
    assert code == 2
    assert json.loads(stdout)["certified"] is False


def test_polytope_lattice_points(capsys, tmp_path):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"vertices": [["1/2", "0"], ["0", "1/2"], ["-1/2", "0"], ["0", "-1/2"]]}))
    code, stdout, _ = run(capsys, "polytope", "lattice-points", "--in", str(p), "--q", "2")
    assert code == 0 and json.loads(stdout)["count"] == 5


def test_polytope_slice(capsys, tmp_path):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"vertices": [["1", "1"], ["1", "-1"], ["-1", "1"], ["-1", "-1"]]}))
    code, stdout, _ = run(capsys, "polytope", "slice", "--in", str(p), "--normal", "1,0", "--offset", "0")
    assert code == 0
    obj = json.loads(stdout)
    assert obj["section"]["dim"] == 1 and obj["plus"]["dim"] == 2


@pytest.mark.parametrize("normal", ["1,0,5", "1", "0,0"])
def test_polytope_slice_rejects_bad_normal(capsys, tmp_path, normal):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"vertices": [["1", "1"], ["1", "-1"], ["-1", "1"], ["-1", "-1"]]}))
    code, stdout, err = run(capsys, "polytope", "slice", "--in", str(p), "--normal", normal)
    assert code == 1 and stdout == ""
    assert "usage error" in err and "--normal" in err


def test_polytope_slice_negative_arguments_need_equals_form(capsys, tmp_path):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"vertices": [["1", "1"], ["1", "-1"], ["-1", "1"], ["-1", "-1"]]}))
    code, stdout, _ = run(capsys, "polytope", "slice", "--in", str(p), "--normal=-1,0", "--offset=-1/2")
    assert code == 0
    # -x - 1/2 >= 0 keeps x <= -1/2
    assert json.loads(stdout)["plus"]["vertices"] == [["-1", "-1"], ["-1", "1"], ["-1/2", "-1"], ["-1/2", "1"]]
    for argv in (["--normal", "-1,0"], ["--normal", "1,0", "--offset", "-1/2"]):
        code, stdout, err = run(capsys, "polytope", "slice", "--in", str(p), *argv)
        assert code == 1 and stdout == "" and "expected one argument" in err
    with pytest.raises(SystemExit):
        main(["polytope", "--help"])
    help_text = capsys.readouterr().out
    assert "--normal=-1,0" in help_text and "--offset=-1/2" in help_text


ROWS3 = {"1": [0, 1, -1], "2": [-1, 0, 1], "3": [1, -1, 0]}


@pytest.mark.parametrize(
    "argv, obj",
    [
        (["mutate", "--seq", "1"], {"cols": "123", "frozen": [], "d": [1, 1, 1], "rows": ROWS3}),
        (["mutate", "--seq", "1"], {"cols": [1, 2, 3], "frozen": [], "d": "111", "rows": ROWS3}),
        (["mutate", "--seq", "1"], {"cols": [1, 2], "frozen": [], "d": [1, 1], "rows": {"1": "01", "2": [-1, 0]}}),
        (["polytope", "hull"], {"vertices": ["00", "10", "01"]}),
        (["polytope", "hull"], {"vertices": [[]]}),
        (["polytope", "hull"], {"vertices": "0"}),
        (["certify-distinct"], "stage seq"),
    ],
)
def test_json_strings_are_not_lists(capsys, tmp_path, argv, obj):
    """Every list field needs a JSON array and every vertex a coordinate;
    otherwise the input is a parse error (exit 1, nothing on stdout)."""
    if obj == "stage seq":
        obj = _family_2stage()
        obj["stages"][0]["seq"] = "1"
    f = tmp_path / "in.json"
    f.write_text(json.dumps(obj))
    code, stdout, err = run(capsys, *argv, "--family" if argv[0] == "certify-distinct" else "--in", str(f))
    assert (code, stdout) == (1, "") and "parse error" in err


MATRIX3 = {"cols": [1, 2, 3], "frozen": [], "d": [1, 1, 1], "rows": ROWS3}


@pytest.mark.parametrize(
    "patch",
    [
        {"cols": [1, 2, 3.7]},
        {"cols": [True, 2, 3]},
        {"frozen": [3.0], "rows": {"1": [0, 1, -1], "2": [-1, 0, 1]}},
        {"d": [1, 1.5, 1]},
        {"d": [1, False, 1]},
        {"rows": ROWS3 | {"2": [-1, 0, 0.9]}},
        {"seq": [1.0]},
        {"r": 1.9},
        {"s": True},
    ],
)
def test_integer_fields_refuse_floats_and_bools(capsys, tmp_path, patch):
    """int() would truncate 3.7 to 3 and read true as 1, so a float or bool in
    an integer field of a matrix or a stage is a parse error (exit 1, nothing
    on stdout), where the truncated value would be valid."""
    if {"seq", "r", "s"} & set(patch):
        obj, argv = _family_2stage(), ["certify-distinct", "--family"]
        obj["stages"][0] |= patch
    else:
        obj, argv = MATRIX3 | patch, ["mutate", "--seq", "1", "--in"]
    f = tmp_path / "in.json"
    f.write_text(json.dumps(obj))
    code, stdout, err = run(capsys, *argv, str(f))
    assert (code, stdout) == (1, "") and "parse error" in err


def test_integer_fields_take_integer_strings():
    written = {"cols": ["1", "2", "3"], "frozen": [], "d": ["1", 1, "1"], "rows": ROWS3 | {"2": ["-1", 0, "1"]}}
    assert jsonio.matrix_from_obj(written) == jsonio.matrix_from_obj(MATRIX3)
    fam = _family_2stage()
    st = fam["stages"][0]
    fam["stages"][0] = {"seq": [str(k) for k in st["seq"]], "r": str(st["r"]), "s": st["s"]}
    assert jsonio.family_from_obj(fam).stages == jsonio.family_from_obj(_family_2stage()).stages


@pytest.mark.parametrize("rows", [{"01": [0, 1, -1]} | ROWS3, ROWS3 | {"01": [0, 2, -2]}])
def test_row_keys_naming_a_label_twice_are_parse_errors(capsys, tmp_path, rows):
    """"1" and "01" both name label 1: whichever key comes last, the matrix is
    a parse error (exit 1, nothing on stdout), not a silently dropped row."""
    f = tmp_path / "in.json"
    f.write_text(json.dumps(MATRIX3 | {"rows": rows}))
    code, stdout, err = run(capsys, "mutate", "--seq", "1", "--in", str(f))
    assert (code, stdout) == (1, "") and "name a label twice" in err


@pytest.mark.parametrize("stage", [{"seq": [1, 2], "r": 99, "s": 3}, {"seq": [1, 2, 77], "r": 1, "s": 3}])
def test_stage_labels_must_be_matrix_labels(capsys, tmp_path, stage):
    """A stage row or sequence label that names no column gives no
    certificate, even where the replay blocks before reaching it."""
    obj = _family_2stage()
    obj["stages"].append(stage)
    f = tmp_path / "in.json"
    f.write_text(json.dumps(obj))
    code, stdout, err = run(capsys, "certify-distinct", "--family", str(f))
    assert (code, stdout) == (2, "") and "unknown" in err


@pytest.mark.parametrize("argv", [[], ["--type", "A3"], ["--word", "1,2,1"]])
def test_quiver_needs_a_source(capsys, argv):
    code, stdout, err = run(capsys, "quiver", *argv)
    assert (code, stdout) == (1, "") and "need either --in or both --type and --word" in err


def test_trop_mutate_command(capsys, tmp_path):
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"cols": [1, 2], "frozen": [2], "d": [1, 1], "rows": {"1": [0, -2]}}))
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"vertices": [["0", "0"], ["-1", "2"], ["1", "0"], ["1", "2"]]}))
    code, stdout, _ = run(capsys, "trop-mutate", "--in", str(p), "--matrix", str(m), "--k", "1")
    assert code == 0 and json.loads(stdout)["convex"] is True


def test_search_budget_exit_code(capsys, tmp_path):
    r = tmp_path / "r.json"
    assert run(capsys, "seed", "--type", "C3", "--word", NINE, "--out", str(r))[0] == 0
    code, stdout, _ = run(
        capsys, "search-large-entry", "--in", str(r), "--target", "1000000", "--budget", "50", "--beam", "4"
    )
    assert code == 3 and json.loads(stdout)["found"] is False


def test_search_stops_when_beam_empties(capsys, tmp_path, monkeypatch):
    """A2 with one frozen column: every child repeats a shorter sequence after
    28 budget-counted expansions, far inside the budget; the CLI still reports
    exit 3 and the same {"budget", "found"} object as a spent budget.  Only 15
    of the 28 expansions call the mutation kernel: the other 13 would mutate a
    state back along its last label, which gives its parent, so the search
    skips them."""
    from clustrop import mutation

    calls = []
    kernel = mutation._mutated_rows
    monkeypatch.setattr(mutation, "_mutated_rows", lambda *args: calls.append(args[-1]) or kernel(*args))
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"cols": [1, 2, 3], "frozen": [3], "d": [1, 1, 1], "rows": {"1": [0, 1, -1], "2": [-1, 0, 1]}}))
    code, stdout, _ = run(capsys, "search-large-entry", "--in", str(m), "--target", "100")
    assert code == 3
    assert stdout == '{"budget":20000,"found":false}\n'
    assert len(calls) == 15


def test_out_file_bytes_match_stdout(capsys, tmp_path):
    out = tmp_path / "m.json"
    argv = ["seed", "--type", "C3", "--word", NINE]
    _, stdout, _ = run(capsys, *argv)
    assert run(capsys, *argv, "--out", str(out))[0] == 0
    assert out.read_bytes() == stdout.encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_failed_out_write_keeps_existing_file(capsys, tmp_path, monkeypatch):
    """A write that fails part-way leaves the old file and no temporary file."""
    import builtins

    from clustrop import cli

    out = tmp_path / "m.json"
    out.write_text("old contents\n")

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError("no space left on device")

    monkeypatch.setattr(cli, "open", lambda *a, **kw: HalfWriter(builtins.open(*a, **kw)), raising=False)
    with pytest.raises(OSError, match="no space left"):
        main(["seed", "--type", "C3", "--word", NINE, "--out", str(out)])
    assert out.read_text() == "old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


@pytest.mark.parametrize("where, reason", [("missing/x.json", "No such file or directory"), ("sub", "Is a directory")])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, where, reason):
    """An --out in a missing directory, or naming a directory, exits 1 with
    one usage error line, prints nothing and leaves no temporary file."""
    (tmp_path / "sub").mkdir()
    out = tmp_path / where
    code, stdout, err = run(capsys, "seed", "--type", "A2", "--word", "1,2,1", "--out", str(out))
    assert (code, stdout, err) == (1, "", f"usage error: cannot write output file {out}: {reason}\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["sub"]


def test_class_bfs_exit_codes(capsys, tmp_path):
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"cols": [1, 2], "frozen": [], "d": [1, 1], "rows": {"1": [0, 1], "2": [-1, 0]}}))
    code, stdout, _ = run(capsys, "class-bfs", "--in", str(m))
    assert code == 0 and json.loads(stdout)["status"] == "finite"
    code, stdout, _ = run(capsys, "class-bfs", "--in", str(m), "--node-cap", "1")
    assert json.loads(stdout)["status"] in ("finite", "cap_exhausted")


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--q", ["polytope", "lattice-points", "--in", "{poly}", "--q", "0"]),
        ("--node-cap", ["class-bfs", "--in", "{matrix}", "--node-cap", "0"]),
        ("--entry-cap", ["class-bfs", "--in", "{matrix}", "--entry-cap", "0"]),
        ("--target", ["search-large-entry", "--in", "{matrix}", "--target", "0"]),
        ("--budget", ["search-large-entry", "--in", "{matrix}", "--target", "2", "--budget", "0"]),
        ("--beam", ["search-large-entry", "--in", "{matrix}", "--target", "2", "--beam", "-1"]),
    ],
)
def test_non_positive_numbers_are_usage_errors(capsys, tmp_path, flag, argv):
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"cols": [1, 2, 3], "frozen": [3], "d": [1, 1, 1], "rows": {"1": [0, 1, -1], "2": [-1, 0, 1]}}))
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"vertices": [["1", "0"], ["0", "1"], ["-1", "-1"]]}))
    code, stdout, err = run(capsys, *[a.format(poly=p, matrix=m) for a in argv])
    assert code == 1 and stdout == ""
    assert f"argument {flag}: must be a positive integer" in err


TOO_LONG = "1" * 5000  # past int()'s digit limit, which raises ValueError
NOT_PLAIN = pytest.mark.parametrize("form", ["1_0", "+1", "1.0", "١", TOO_LONG], ids=lambda f: ascii(f)[:8])


@NOT_PLAIN
@pytest.mark.parametrize("flag", ["--seq", "--keep"])
def test_label_lists_take_plain_integers(capsys, tmp_path, flag, form):
    """A --seq or --keep item must match -?[0-9]+, with whitespace around it
    allowed; int() alone would read "1_0" as label 10."""
    m = tmp_path / "m.json"
    m.write_text(json.dumps(MATRIX3))
    cmd = "mutate" if flag == "--seq" else "restrict"
    plain = run(capsys, cmd, "--in", str(m), flag, "1,2")
    assert plain[0] == 0 and run(capsys, cmd, "--in", str(m), flag, " 1 , 2,") == plain
    code, stdout, err = run(capsys, cmd, "--in", str(m), flag, f"1,{form}")
    assert (code, stdout, err) == (1, "", f"usage error: field {flag} must be a comma-separated integer list\n")


@NOT_PLAIN
def test_word_takes_plain_integers(capsys, form):
    plain = run(capsys, "seed", "--type", "A2", "--word", "1,2,1")
    assert plain[0] == 0 and run(capsys, "seed", "--type", "A2", "--word", "1, 2 ,1") == plain
    code, stdout, err = run(capsys, "seed", "--type", "A2", "--word", f"1,2,{form}")
    assert (code, stdout) == (1, "") and err.startswith("parse error: cannot parse word")


@pytest.mark.parametrize("rank", ["\u00b2", "\u0663", "1" * 5000], ids=["superscript", "arabic_indic", "5000_digits"])
def test_cartan_rank_takes_plain_digits(capsys, rank):
    """"A²" ended in a ValueError traceback, "A٣" printed the A3 seed, and a
    5000-digit rank hit int()'s digit limit; each is now a parse error."""
    for good in ("C3", "g2"):
        assert run(capsys, "seed", "--type", good, "--word", "1,2,1")[0] == 0
    code, stdout, err = run(capsys, "seed", "--type", "A" + rank, "--word", "1,2,1")
    assert (code, stdout) == (1, "") and err.startswith("parse error: cannot parse Cartan type")


@NOT_PLAIN
def test_k_takes_a_plain_integer(capsys, tmp_path, form):
    argv = _golden_inputs(tmp_path, "trop_k1")
    code, stdout, err = run(capsys, *argv[:-1], form)
    assert (code, stdout, err) == (1, "", f"usage error: argument --k: invalid int value: {form!r}\n")


@NOT_PLAIN
@pytest.mark.parametrize("flag", ["--q", "--target", "--budget", "--beam", "--node-cap", "--entry-cap"])
def test_positive_int_flags_take_plain_integers(capsys, tmp_path, flag, form):
    m = tmp_path / "m.json"
    m.write_text(json.dumps(MATRIX3))
    if flag == "--q":
        argv = _golden_inputs(tmp_path, "polytope_lattice_q2")[:-2]
    elif flag in ("--node-cap", "--entry-cap"):
        argv = ["class-bfs", "--in", str(m)]
    else:
        argv = ["search-large-entry", "--in", str(m)] + ([] if flag == "--target" else ["--target", "2"])
    code, stdout, err = run(capsys, *argv, flag, form)
    assert (code, stdout, err) == (1, "", f"usage error: argument {flag}: invalid int value: {form!r}\n")


def test_certify_distinct_command(capsys, tmp_path):
    fam = json.loads((resources.files("clustrop") / "fixtures" / "family_2stage.json").read_text())["family"]
    f = tmp_path / "f.json"
    f.write_text(json.dumps(fam))
    out = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify-distinct", "--family", str(f), "--out", str(out))
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["pairwise_distinct"] is True
    assert [st["entry"] for st in cert["stages"]] == [-2, -4]


def test_fixtures_run(capsys):
    code, stdout, _ = run(capsys, "fixtures", "run")
    assert code == 0
    assert "13/13 fixtures passed" in stdout


def test_outputs_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "seed", "--type", "G2", "--word", "1,2,1,2,1,2", "--out", str(a))
    run(capsys, "seed", "--type", "G2", "--word", "1,2,1,2,1,2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_round_trip_matrix_format(capsys, tmp_path):
    m = tmp_path / "m.json"
    run(capsys, "seed", "--type", "B3", "--word", NINE, "--out", str(m))
    eps = jsonio.matrix_from_obj(json.loads(m.read_text()))
    assert jsonio.dumps(jsonio.matrix_to_obj(eps)) == m.read_text()


def test_round_trip_polytope_format(tmp_path):
    obj = {"vertices": [["-1", "0"], ["0", "-1"], ["1/2", "1/2"]]}
    P = jsonio.polytope_from_obj(obj)
    again = jsonio.polytope_from_obj(json.loads(jsonio.dumps(jsonio.polytope_to_obj(P))))
    assert P == again


@pytest.mark.parametrize("form", ["1_0", " 2 ", "+2", "2\n"])
@pytest.mark.parametrize("where", ["cols", "d", "rows value", "rows key", "stage r"])
def test_integer_strings_must_be_plain_digits(capsys, tmp_path, form, where):
    """int() reads "1_0" as 10 and " 2 ", "+2" and "2\\n" as 2; an integer
    string must match -?[0-9]+, so each is a parse error (exit 1, nothing on
    stdout) where the same input with the integer itself is valid."""
    k = int(form)

    def build(x):
        """A valid input when x is k: a 3-cycle on labels 1, k, 3 with entry k,
        or the fixture family with label 2 renamed k."""
        cols, d = [1, k, 3], [k, k, k]
        rows = {"1": [0, k, -1], str(k): [-k, 0, 1], "3": [1, -1, 0]}
        if where == "cols":
            cols[1] = x
        elif where == "d":
            d[0] = x
        elif where == "rows value":
            rows["1"][1] = x
        elif where == "rows key":
            rows = {"1": rows["1"], str(x): rows[str(k)], "3": rows["3"]}
        matrix = {"cols": cols, "frozen": [], "d": d, "rows": rows}
        if where != "stage r":
            return matrix, ["mutate", "--seq", "1", "--in"]
        fam = _family_2stage()
        fam["matrix"]["cols"] = [1, k, 3]
        fam["matrix"]["rows"] = {"1": [0, 1, -2], str(k): [-1, 0, -2]}
        fam["stages"][1]["r"] = x
        return fam, ["certify-distinct", "--family"]

    for x, valid in ((k, True), (form, False)):
        obj, argv = build(x)
        f = tmp_path / "in.json"
        f.write_text(json.dumps(obj))
        code, stdout, err = run(capsys, *argv, str(f))
        if valid:
            assert code in (0, 2) and stdout, err
        else:
            assert (code, stdout) == (1, "") and "parse error" in err


def test_round_trip_family_format():
    fam_obj = json.loads((resources.files("clustrop") / "fixtures" / "family_2stage.json").read_text())["family"]
    fam = jsonio.family_from_obj(fam_obj)
    again = jsonio.family_from_obj(json.loads(jsonio.dumps(jsonio.family_to_obj(fam))))
    assert again.matrix == fam.matrix
    assert again.polytope == fam.polytope
    assert again.stages == fam.stages


def test_rational_parse_rejects_garbage():
    with pytest.raises(jsonio.FormatError):
        jsonio.rat_from_str("1/0")
    with pytest.raises(jsonio.FormatError):
        jsonio.rat_from_str("pi")


def _family_2stage():
    return json.loads((resources.files("clustrop") / "fixtures" / "family_2stage.json").read_text())["family"]


# the polar dual of conv of seven primitive normals around the origin (a QGF
# polytope of size 1 with rational vertices), plus an interior point, an edge
# midpoint and a point inside the facet u1 = -1
POLYTOPE_4D = [
    ["-1", "-1", "-1", "-1"], ["-1", "-1", "-1", "0"], ["-1", "-1", "0", "-1"], ["-1", "1/3", "-1", "4/3"],
    ["-1", "3/2", "5/2", "-1"], ["-1", "5", "-1", "-1"], ["-1/3", "-1/3", "-1", "4/3"], ["1", "-1", "1", "0"],
    ["3/2", "-1", "5/2", "-1"], ["2", "-1", "2", "-1"], ["2", "2", "-1", "-1"],
    ["0", "0", "0", "0"], ["-1", "-1", "-1", "-1/2"], ["-1", "1", "-2/3", "-1"],
]


def _golden_inputs(tmp_path, case):
    """Argv for one pinned CLI case; input files are written to tmp_path."""
    if case == "polytope_slice":
        # a 2-dimensional polytope from another golden file, cut by a non-primitive normal
        p = tmp_path / "p.json"
        p.write_text(json.dumps(json.loads((GOLDEN / "trop_nonconvex.json").read_text())["minus_image"]))
        return ["polytope", "slice", "--in", str(p), "--normal", "2,4", "--offset", "1/2"]
    if case == "polytope_slice_diamond":
        # both sides reached, but the wall holds two vertices and crosses no edge strictly
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"vertices": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]}))
        return ["polytope", "slice", "--in", str(p), "--normal", "1,0"]
    if case.startswith("polytope_"):
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"vertices": POLYTOPE_4D}))
        sub = case.removeprefix("polytope_")
        if sub == "lattice_q2":
            return ["polytope", "lattice-points", "--in", str(p), "--q", "2"]
        return ["polytope", sub, "--in", str(p)]
    if case == "seed_c3":
        return ["seed", "--type", "C3", "--word", NINE]
    if case in ("restrict_c3", "mutate_c3r"):
        # the README pipeline: each step reads the previous step's golden stdout
        m = tmp_path / "m.json"
        if case == "restrict_c3":
            m.write_text((GOLDEN / "seed_c3.json").read_text())
            return ["restrict", "--in", str(m), "--keep", "1,2,3,6,8"]
        m.write_text((GOLDEN / "restrict_c3.json").read_text())
        return ["mutate", "--in", str(m), "--seq", "6,2,3"]
    if case == "quiver_a5":
        return ["quiver", "--type", "A5", "--word", "1,2,1,3,2,1,4,3,2,1,5,4,3,2,1"]
    if case == "fixtures_run":
        return ["fixtures", "run"]
    if case == "class_bfs_ft_a22":
        m = tmp_path / "m.json"
        fx = json.loads((resources.files("clustrop") / "fixtures" / "ft_a22.json").read_text())
        m.write_text(json.dumps(fx["matrix"]))
        return ["class-bfs", "--in", str(m), "--node-cap", "2000"]
    if case == "search_c3_target8":
        m = tmp_path / "m.json"
        c3 = gls_exchange_matrix(cartan_matrix("C", 3), (3, 2, 3, 2, 1, 2, 3, 2, 1)).restrict({1, 2, 3, 6, 8})
        m.write_text(jsonio.dumps(jsonio.matrix_to_obj(c3)))
        return ["search-large-entry", "--in", str(m), "--target", "8"]
    fam = _family_2stage()
    if case == "certify_blocked":
        # two valid stages, a zero a_s, a positive entry, then a replay that
        # hits a non-convex image at direction 2
        fam["stages"] = [
            {"seq": [], "r": 1, "s": 3},
            {"seq": [], "r": 1, "s": 1},
            {"seq": [1], "r": 2, "s": 3},
            {"seq": [1], "r": 1, "s": 3},
            {"seq": [1, 2], "r": 2, "s": 3},
        ]
    if case == "trop_nonconvex":
        fam["matrix"] = {"cols": [1, 2], "frozen": [2], "d": [1, 1], "rows": {"1": [0, -2]}}
        fam["polytope"] = {"vertices": [["2", "2"], ["2", "-2"], ["-2", "2"], ["-2", "-2"]]}
    paths = {}
    for name in ("family", "matrix", "polytope"):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(fam if name == "family" else fam[name]))
    if case.startswith("certify"):
        return ["certify-distinct", "--family", str(paths["family"])]
    k = "2" if case == "trop_k2" else "1"
    return ["trop-mutate", "--in", str(paths["polytope"]), "--matrix", str(paths["matrix"]), "--k", k]


GOLDEN_CASES = [
    ("certify_2stage", 0),
    ("certify_blocked", 2),
    ("trop_k1", 0),
    ("trop_k2", 0),
    ("trop_nonconvex", 2),
    ("class_bfs_ft_a22", 3),
    ("search_c3_target8", 0),
    ("polytope_hull", 0),
    ("polytope_dual", 0),
    ("polytope_qgf", 0),
    ("polytope_lattice_q2", 0),
    ("polytope_slice", 0),
    ("polytope_slice_diamond", 0),
    ("seed_c3", 0),
    ("restrict_c3", 0),
    ("mutate_c3r", 0),
    ("quiver_a5", 0),
    ("fixtures_run", 0),
]


@pytest.mark.parametrize("case, code", GOLDEN_CASES)
def test_golden_stdout(capsys, tmp_path, case, code):
    """Exact stdout bytes against tests/golden; change a golden file only
    with an intended change of the output format or of the mathematics.
    `fixtures run` prints lines of text, so its golden file is .txt."""
    got, stdout, _ = run(capsys, *_golden_inputs(tmp_path, case))
    assert got == code
    assert stdout == _golden_file(case).read_text()


def _golden_file(case):
    return GOLDEN / f"{case}.{'txt' if case == 'fixtures_run' else 'json'}"


@pytest.mark.parametrize("case, code", GOLDEN_CASES)
def test_golden_out_file(capsys, tmp_path, case, code):
    """Every subcommand writes with --out exactly the bytes it prints without
    it: same exit code, nothing on stdout, no temporary file left."""
    argv = _golden_inputs(tmp_path, case)
    (tmp_path / "out").mkdir()
    out = tmp_path / "out" / "result"
    assert run(capsys, *argv, "--out", str(out))[:2] == (code, "")
    assert out.read_bytes() == _golden_file(case).read_bytes()
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["result"]


def test_every_subcommand_has_a_golden_case(tmp_path):
    """A new subcommand or polytope action lands with a golden stdout file."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    actions = next(a for a in commands["polytope"]._actions if a.dest == "sub").choices
    wanted = {c for c in commands if c != "polytope"} | {f"polytope {a}" for a in actions}
    covered = set()
    for case, _code in GOLDEN_CASES:
        argv = _golden_inputs(tmp_path, case)
        covered.add(" ".join(argv[:2]) if argv[0] == "polytope" else argv[0])
    assert wanted <= covered, f"no golden case for {sorted(wanted - covered)}"


@pytest.mark.parametrize("kind", ["usage", "parse", "negative"])
def test_error_exit_writes_no_out_file(capsys, tmp_path, kind):
    """An exit on a usage error, a parse error or a raised mathematical
    negative leaves no --out file, temporary or final."""
    (tmp_path / "out").mkdir()
    out = tmp_path / "out" / "result"
    f = tmp_path / "in.json"
    if kind == "usage":
        argv, want = ["mutate", "--seq", "1"], (1, "usage error")
    elif kind == "parse":
        f.write_text(json.dumps({"cols": [1, 2], "frozen": [], "d": [1, 1]}))
        argv, want = ["mutate", "--in", str(f), "--seq", "1"], (1, "parse error")
    else:
        fam = _family_2stage()
        fam["stages"].append({"seq": [1, 2], "r": 99, "s": 3})
        f.write_text(json.dumps(fam))
        argv, want = ["certify-distinct", "--family", str(f)], (2, "error: stage pair row 99 unknown")
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (want[0], "") and err.startswith(want[1])
    assert list((tmp_path / "out").iterdir()) == []


def test_cached_parser_matches_fresh_parsers(capsys, tmp_path):
    """The parser is built once per process; a mixed sequence of calls
    through it gives the exit codes, stdout and stderr of the same calls each
    on a freshly built parser."""
    square = tmp_path / "square.json"
    square.write_text(json.dumps({"vertices": [["2", "2"], ["2", "-2"], ["-2", "2"], ["-2", "-2"]]}))
    calls = [
        _golden_inputs(tmp_path, "certify_2stage"),
        ["mutate", "--seq", "1"],
        _golden_inputs(tmp_path, "trop_k1"),
        ["polytope", "slice", "--in", str(square), "--normal=-1,0"],
        ["polytope", "lattice-points", "--in", str(square), "--q", "0"],
        ["polytope", "slice", "--in", str(square), "--normal", "-1,0"],
        _golden_inputs(tmp_path, "certify_2stage"),
    ]
    build_parser.cache_clear()
    cached = [run(capsys, *argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 1, 0, 0, 1, 1, 0]
    assert cached[0][1] == (GOLDEN / "certify_2stage.json").read_text()
