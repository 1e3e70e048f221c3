"""Command-line interface: each subcommand, exit codes, output shapes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiver_regrade import parse_presentation, weight_discrepancy
from quiver_regrade.cli import main
from quiver_regrade.regrade import MAX_DISCREPANCY

KXY = "[quiver]\nvertex v\narrow x v v 1\narrow y v v 2\n\n[relations]\nx*y - y*x\n"
KXYZ = (
    "[quiver]\nvertex v\narrow x v v 1\narrow y v v 1\narrow z v v 1\n\n"
    "[relations]\nx*y - y*x\nx*z - z*x\ny*z - z*y\n"
)
BAD = "[quiver]\nvertex v\narrow x v w 1\n"


@pytest.fixture
def kxy_file(tmp_path):
    p = tmp_path / "kxy.quiver"
    p.write_text(KXY)
    return str(p)


@pytest.fixture
def bad_file(tmp_path):
    p = tmp_path / "bad.quiver"
    p.write_text(BAD)
    return str(p)


class TestValidate:
    def test_ok(self, kxy_file, capsys):
        assert main(["validate", kxy_file]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_bad_file(self, bad_file, capsys):
        assert main(["validate", bad_file]) == 1
        err = capsys.readouterr().err
        assert "undeclared target 'w'" in err
        assert "line 3" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.quiver")]) == 1
        assert capsys.readouterr().err


class TestEncoding:
    def test_utf8_byte_order_mark_is_skipped(self, golden_dir, tmp_path, capsys):
        p = tmp_path / "kxy-bom.quiver"
        p.write_bytes(b"\xef\xbb\xbf" + (golden_dir / "kxy.quiver").read_bytes())
        assert main(["discrepancy", str(p)]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_undecodable_file_is_a_failure(self, tmp_path):
        p = tmp_path / "utf16.quiver"
        p.write_bytes(b"\xff\xfe" + KXY.encode("utf-16-le"))
        proc = subprocess.run(
            [sys.executable, "-m", "quiver_regrade.cli", "regrade", str(p)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"cannot read {p}: ")
        assert "Traceback" not in proc.stderr


class TestDiscrepancy:
    def test_value(self, kxy_file, capsys):
        assert main(["discrepancy", kxy_file]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_zero_for_degree_one(self, tmp_path, capsys):
        p = tmp_path / "flat.quiver"
        p.write_text("[quiver]\nvertex v\narrow x v v 1\n")
        assert main(["discrepancy", str(p)]) == 0
        assert capsys.readouterr().out.strip() == "0"


class TestSplit:
    def test_splits_named_arrow(self, kxy_file, capsys):
        assert main(["split", kxy_file, "--arrow", "y"]) == 0
        out = capsys.readouterr().out
        assert "arrow y' v z 1" in out
        assert "arrow y'' z v 1" in out
        assert "x*y'*y'' - y'*y''*x" in out

    def test_degree_one_arrow_rejected(self, kxy_file, capsys):
        assert main(["split", kxy_file, "--arrow", "x"]) == 1
        assert capsys.readouterr().err

    def test_unknown_arrow_rejected(self, kxy_file, capsys):
        assert main(["split", kxy_file, "--arrow", "nope"]) == 1
        assert capsys.readouterr().err


class TestRegrade:
    def test_stdout_matches_golden(self, golden_dir, capsys):
        assert main(["regrade", str(golden_dir / "kxy.quiver")]) == 0
        got = capsys.readouterr().out
        want = (golden_dir / "kxy_regraded.quiver").read_text()
        assert got == want

    def test_output_file(self, kxy_file, tmp_path, capsys):
        out_path = tmp_path / "out.quiver"
        assert main(["regrade", kxy_file, "-o", str(out_path)]) == 0
        text = out_path.read_text()
        assert "# regrade: 1 split" in text
        assert "arrow y' v z 1" in text

    def test_unwritable_output(self, kxy_file, tmp_path, capsys):
        out_path = tmp_path / "missing" / "out"
        assert main(["regrade", kxy_file, "-o", str(out_path)]) == 1
        assert capsys.readouterr().err.startswith(f"cannot write {out_path}: ")
        assert not out_path.exists()

    def test_roundtrips_through_parser(self, kxy_file, capsys):
        from quiver_regrade import parse_presentation, weight_discrepancy

        main(["regrade", kxy_file])
        out = capsys.readouterr().out
        q, _ = parse_presentation(out)
        assert weight_discrepancy(q) == 0

    def test_discrepancy_above_bound_is_refused(self, tmp_path):
        # one split per unit of discrepancy: a degree of 10^9 must be refused
        # up front, not run until it is killed
        p = tmp_path / "huge.quiver"
        p.write_text("[quiver]\nvertex v\narrow x v v 1000000000\n\n[relations]\nx*x\n")
        proc = subprocess.run(
            [sys.executable, "-m", "quiver_regrade.cli", "regrade", str(p)],
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "weight discrepancy 999999999" in proc.stderr
        assert f"bound {MAX_DISCREPANCY}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_names_at_the_bound(self, tmp_path):
        # one loop at the bound is 2000 splits of ever longer primed names;
        # the digest pins every split line and name of the output
        assert MAX_DISCREPANCY == 2000
        p = tmp_path / "loop.quiver"
        p.write_text("[quiver]\nvertex v\narrow x v v 2001\n")
        out_path = tmp_path / "out.quiver"
        assert main(["regrade", str(p), "-o", str(out_path)]) == 0
        data = out_path.read_bytes()
        assert len(data) == 16_204_278
        assert hashlib.sha256(data).hexdigest() == (
            "c8695c32834f159903a933b49de3850d422fdfcd0549cc5239af3def184eea10"
        )


def _hilbert_table(argv, capsys) -> list[tuple[int, int]]:
    assert main(["hilbert", *argv]) == 0
    return [tuple(map(int, line.split())) for line in capsys.readouterr().out.splitlines()]


class TestHilbert:
    def test_coefficient_the_field_cannot_hold(self, tmp_path, capsys):
        p = tmp_path / "frac.quiver"
        p.write_text("[quiver]\nvertex v\narrow x v v 1\narrow y v v 2\n\n"
                     "[relations]\n1/32003*x*x*x*x - y*y\n")
        assert main(["hilbert", str(p), "--max-degree", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "relation 1/32003*x*x*x*x - y*y: denominator of 1/32003 vanishes mod 32003; "
            "use --field q or another prime\n"
        )
        assert main(["hilbert", str(p), "--max-degree", "4", "--field", "p7"]) == 0
        assert capsys.readouterr().out == "0 1\n1 1\n2 2\n3 3\n4 4\n"

    def test_table(self, kxy_file, capsys):
        assert main(["hilbert", kxy_file, "--max-degree", "6"]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.strip().splitlines()]
        assert rows == [
            ["0", "1"], ["1", "1"], ["2", "2"], ["3", "2"],
            ["4", "3"], ["5", "3"], ["6", "4"],
        ]

    def test_rational_field_same_table(self, kxy_file, capsys):
        main(["hilbert", kxy_file, "--max-degree", "6"])
        default_out = capsys.readouterr().out
        main(["hilbert", kxy_file, "--max-degree", "6", "--field", "q"])
        assert capsys.readouterr().out == default_out

    def test_vertex_filter(self, kxy_file, capsys):
        assert main(["hilbert", kxy_file, "--max-degree", "3", "--vertex", "v"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "0 1"

    def test_unknown_vertex(self, kxy_file, capsys):
        assert main(["hilbert", kxy_file, "--max-degree", "3", "--vertex", "zz"]) == 1
        assert "unknown vertex" in capsys.readouterr().err

    def test_bad_field_spec(self, kxy_file, capsys):
        assert main(["hilbert", kxy_file, "--max-degree", "3", "--field", "p4"]) == 2

    def test_deep_single_loop(self, tmp_path, capsys):
        # a degree-1200 path is 1200 arrows long: the walk must not recurse per arrow
        p = tmp_path / "loop.quiver"
        p.write_text("[quiver]\nvertex v\narrow x v v 1\n")
        assert main(["hilbert", str(p), "--max-degree", "1200"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1201
        assert out[-1] == "1200 1"

    def test_kxy_to_degree_20(self, kxy_file, capsys):
        # k[x,y] with deg y = 2: the monomials x^i y^j with i + 2j = d; the
        # README cites degree 200
        for top in (20, 200):
            table = _hilbert_table([kxy_file, "--max-degree", str(top)], capsys)
            assert table == [(d, d // 2 + 1) for d in range(top + 1)]

    @pytest.mark.parametrize(
        "field, top", [([], 8), (["--field", "q"], 6)], ids=["default-prime", "rationals"]
    )
    def test_commutative_three_variables(self, tmp_path, capsys, field, top):
        # k[x,y,z]: C(d+2, 2) monomials in degree d
        p = tmp_path / "kxyz.quiver"
        p.write_text(KXYZ)
        table = _hilbert_table([str(p), "--max-degree", str(top), *field], capsys)
        assert table == [(d, comb(d + 2, 2)) for d in range(top + 1)]

    def test_commutative_three_variables_past_the_free_path_count(self, tmp_path, capsys):
        # 3**11 free paths of degree 11 once stopped the table at degree 10;
        # the README cites degree 30
        p = tmp_path / "kxyz.quiver"
        p.write_text(KXYZ)
        for top in (12, 30):
            table = _hilbert_table([str(p), "--max-degree", str(top)], capsys)
            assert table == [(d, comb(d + 2, 2)) for d in range(top + 1)]

    def test_stats_go_to_stderr_only(self, tmp_path, capsys):
        p = tmp_path / "kxyz.quiver"
        p.write_text(KXYZ)
        argv = ["hilbert", str(p), "--max-degree", "4"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main([*argv, "--stats"]) == 0
        stats = capsys.readouterr()
        assert stats.out == plain.out
        assert plain.err == ""
        lines = stats.err.splitlines()
        assert len(lines) == 5
        # the three commutators are the basis; degree 3 reduces one overlap
        assert lines[2].startswith(
            "degree 2: 6 normal paths, 3 basis elements added, 3 echelon rows, "
        )
        assert lines[3].startswith(
            "degree 3: 10 normal paths, 0 basis elements added, 5 echelon rows, "
        )
        for d, line in enumerate(lines):
            assert line.startswith(f"degree {d}: {comb(d + 2, 2)} normal paths, ")
            assert line.endswith("s")

    def test_path_guard_names_the_degree(self, tmp_path, capsys):
        # the free algebra on three loops has 3**11 > 100,000 normal paths of degree 11
        p = tmp_path / "free.quiver"
        p.write_text("[quiver]\nvertex v\narrow x v v 1\narrow y v v 1\narrow z v v 1\n")
        assert main(["hilbert", str(p), "--max-degree", "12"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [f"{d} {3 ** d}" for d in range(11)]
        assert captured.err.startswith("degree 11: more than 100000 normal paths")
        assert len(captured.err.splitlines()) == 1
        assert captured.err.count("11") == 1
        assert "raise" not in captured.err and "Traceback" not in captured.err


class TestVerify:
    def test_small_run_ok(self, capsys):
        rc = main(["verify", "--suite", "split", "--trials", "5"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "[suite] split (seed 0)" in captured.out
        assert "[verify] OK" in captured.out
        assert "wall time" in captured.err
        assert "wall" not in captured.out

    def test_file_gate(self, kxy_file, bad_file, capsys):
        assert main(["verify", kxy_file, "--suite", "split", "--trials", "3"]) == 0
        capsys.readouterr()
        assert main(["verify", bad_file, "--suite", "split", "--trials", "3"]) == 1
        assert capsys.readouterr().err

    def test_window_flag(self, capsys):
        rc = main(
            ["verify", "--suite", "functor", "--trials", "3", "--window=-1:6"]
        )
        assert rc == 0

    def test_bad_window(self, capsys):
        assert main(["verify", "--suite", "split", "--window=oops"]) == 2

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2

    def test_property_times_go_to_stderr(self, capsys):
        assert main(["verify", "--suite", "all", "--seed", "7"]) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == (
            "4488dae582db5d1800819edb4d271d541e5f5a390d754a87c23b314ed3b10037"
        )
        *lines, last = captured.err.splitlines()
        assert re.fullmatch(r"wall time: \d+\.\d\ds", last)
        assert all(re.fullmatch(r"property \w+: \d+\.\d\ds", line) for line in lines)
        names = [line.split()[1].rstrip(":") for line in lines]
        assert len(names) == len(set(names)) == 18
        assert all(f"{name} trials=" in captured.out for name in names)


class TestUsage:
    def test_no_args(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["nonsense"]) == 2

    def test_missing_required(self, capsys):
        assert main(["regrade"]) == 2
        assert main(["split", "x.quiver"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "split", "--trials", "0"],
            ["verify", "--suite", "split", "--trials", "-5"],
            ["verify", "--suite", "split", "--max-dim", "-1"],
            ["hilbert", "KXY", "--max-degree", "-1"],
        ],
    )
    def test_out_of_range_count_is_usage_error(self, argv, kxy_file, capsys):
        argv = [kxy_file if a == "KXY" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "must be at least" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["abc", "4", "1"])
    @pytest.mark.parametrize(
        "argv",
        [["hilbert", "KXY", "--max-degree", "2"], ["verify", "--suite", "split", "--trials", "1"]],
        ids=["hilbert", "verify"],
    )
    def test_bad_prime_in_environment_is_usage_error(
        self, argv, value, kxy_file, monkeypatch, capsys
    ):
        monkeypatch.setenv("QUIVER_REGRADE_PRIME", value)
        argv = [kxy_file if a == "KXY" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "QUIVER_REGRADE_PRIME" in lines[0] and value in lines[0]

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "quiver-regrade" in capsys.readouterr().out


def test_module_entry_subprocess(golden_dir):
    # The module must also work as a fresh process via python -m.
    proc = subprocess.run(
        [sys.executable, "-m", "quiver_regrade.cli", "discrepancy",
         str(golden_dir / "kxy.quiver")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def test_cli_import_does_not_load_numpy():
    # The package has no runtime dependencies; a fresh import must not pull numpy in.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, quiver_regrade.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# small generated presentation files, mostly valid: at most three vertices and
# three arrows keep every hilbert table to degree 6 cheap
_odd = st.sampled_from(["x", "e_u", "1a", "y'", "0", "-1", "1/0", "3/"])


def _sometimes_odd(strategy):
    """``strategy``, or one time in twelve a token that may not belong there."""
    return st.integers(0, 11).flatmap(lambda k: _odd if k == 0 else strategy)


@st.composite
def presentation_files(draw):
    vertices = draw(
        st.lists(st.sampled_from(["u", "v", "w"]), min_size=1, max_size=3, unique=True)
    )
    lines = ["[quiver]", *(f"vertex {v}" for v in vertices)]
    arrows = ["a", "b", "c"][: draw(st.integers(0, 3))]
    for a in arrows:
        src, tgt = (draw(_sometimes_odd(st.sampled_from(vertices))) for _ in range(2))
        deg = draw(_sometimes_odd(st.sampled_from(["1", "2", "3"])))
        lines.append(f"arrow {a} {src} {tgt} {deg}")
    lines.append("[relations]")
    atoms = _sometimes_odd(st.sampled_from(arrows + [f"e_{v}" for v in vertices]))
    for _ in range(draw(st.integers(0, 3))):
        terms = []
        for k in range(draw(st.integers(1, 3))):
            op = draw(_sometimes_odd(st.sampled_from(["" if k == 0 else " + ", " - "])))
            coeff = draw(_sometimes_odd(st.sampled_from(["", "2*", "-1/2*"])))
            word = "*".join(draw(st.lists(atoms, min_size=1, max_size=3)))
            terms.append(op + coeff + word)
        lines.append("".join(terms))
    return "\n".join(lines) + "\n"


commands = st.one_of(
    st.just(["validate"]),
    st.just(["regrade"]),
    st.builds(
        lambda d, extra: ["hilbert", "--max-degree", str(d), *extra],
        st.integers(0, 6),
        st.sampled_from([[], ["--field", "q"], ["--field", "p7"], ["--vertex", "u"]]),
    ),
)


def _shapes(ideal):
    return [(g.source, g.target, g.degree) for g in ideal]


@settings(max_examples=90, deadline=None)
@given(text=presentation_files(), command=commands)
def test_generated_files_exit_cleanly(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gen.quiver"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command[0], str(path), *command[1:]])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if command[0] == "regrade" and rc == 0:
        # the regrade re-parses, is generated in degree 1 and keeps every relation's shape
        _, ideal = parse_presentation(text)
        q_out, ideal_out = parse_presentation(out.getvalue())
        assert weight_discrepancy(q_out) == 0
        assert _shapes(ideal_out) == _shapes(ideal)
