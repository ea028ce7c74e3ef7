"""`cityregions.cli`: `fit`'s sample read through `read_columns` against the
per-line reader it replaced, and the one parser `main` reuses across calls."""

import argparse
import contextlib
import io
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cityregions
from cityregions import cli, columns, pipeline
from cityregions.cli import build_parser, main

from .oracles import reference_read_samples

_DIGITS = st.text("0123456789", min_size=19, max_size=20)  # the kernel reads 19, refuses 20

_LINES = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**20).map(str),
    st.sampled_from(["", " ", "\t", " \x0b\x0c ", "\x85 ", " 1.5 ", "1_0", " 1.5",
                     "nan", "-inf", "inf", "abc", "5.", ".5", "-.5", "-0", ".", "-",
                     "１.５"]),  # full-width digits: float() reads 1.5, the kernel refuses
    _DIGITS,
    st.tuples(_DIGITS, st.integers(0, 20)).map(lambda d: f"{d[0][:d[1]]}.{d[0][d[1]:]}"),
)


@st.composite
def _sample_files(draw):
    """The bytes of a sample file: lines of the kinds above, each ended by LF,
    CRLF or CR, the last one with or without its end."""
    lines = draw(st.lists(st.tuples(_LINES, st.sampled_from(["\n", "\r\n", "\r"])),
                          max_size=12))
    text = "".join(line + end for line, end in lines)
    if lines and draw(st.booleans()):
        text = text[:-len(lines[-1][1])]
    return text.encode("utf-8")


def _run(argv):
    """main's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _bytes_or_none(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _fit(samples, prefix):
    """What `cityregions fit SAMPLES --out-prefix PREFIX` returns, prints and
    writes (None for a file it does not write)."""
    outcome = _run(["fit", samples, "--out-prefix", prefix])
    return outcome, [_bytes_or_none(f"{prefix}_{kind}.txt") for kind in ("fits", "ccdf")]


class TestSampleRead:
    """The column read gives every exit code, message and byte the line loop gave."""

    @settings(max_examples=300, deadline=None)
    @given(_sample_files())
    @example(b"1.5\n2.5\n\nabc\n3\n")
    @example(b"1.5\r\n\r\n2.5\r\ninf\r\n3")
    @example(b"1.5\rnan\r2.5\r-inf\r 3 \r1_0")
    @example(b"1.5\n 1.5\n\x0c\n-2\n4.25\n")
    @example(b"1.5\n-inf\nnan\n2 5\ninf\n")
    @example(b"")
    def test_block_read_equals_the_line_loop(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            samples = os.path.join(tmp, "samples.txt")
            with open(samples, "wb") as fh:
                fh.write(blob)
            got = _fit(samples, os.path.join(tmp, "got"))
            with mock.patch.object(cli, "_read_samples", reference_read_samples):
                want = _fit(samples, os.path.join(tmp, "want"))
        assert got == want

    def test_values_keep_their_order_and_bits(self, tmp_path):
        values = np.random.default_rng(24).lognormal(0.0, 3.0, 1000).tolist() + [-0.0, -1.0]
        samples = tmp_path / "samples.txt"
        samples.write_text("".join(f"{v!r}\r\n" for v in values))
        got = cli._read_samples(str(samples))
        assert [v.hex() for v in got] == [v.hex() for v in values]

    @staticmethod
    def _two_chunk_lines(rng):
        """About 40,000 sample lines that read_columns reads in two chunks, and
        the index of the line that its first chunk's last read cuts. Each
        chunk holds fields the kernel refuses; the cut one is such a field."""
        refused = ["1e-05", "nan", "-inf", "12345678901234567890"]
        lines = [repr(v) for v in rng.lognormal(3.0, 2.0, 27_500).tolist()]
        lines[100:100] = refused
        chars = sum(len(line) + 1 for line in lines)
        while chars < columns._COLUMN_CHARS - 4:  # lines of 4 chars up to the cut
            lines.append("2.5")
            chars += 4
        cut = len(lines)
        lines.append("1e-05")  # starts before the cut and ends after it
        lines += [repr(v) for v in rng.lognormal(3.0, 2.0, 8_000).tolist()]
        lines[cut + 200:cut + 200] = refused
        return lines, cut

    @pytest.mark.parametrize("second", ["", " 2.5 "], ids=["byte_path", "line_path"])
    def test_two_chunks_read_as_the_line_loop(self, tmp_path, second):
        """A 40,000-line CRLF file reads in two chunks to the reference's bits;
        a line of ' 2.5 ' sends the second chunk to the per-line path."""
        lines, cut = self._two_chunk_lines(np.random.default_rng(35))
        if second:
            lines.insert(cut + 5_000, second)
        samples = tmp_path / "samples.txt"
        samples.write_bytes("".join(f"{line}\r\n" for line in lines).encode())
        assert sum(len(line) + 1 for line in lines[:cut]) < columns._COLUMN_CHARS
        assert sum(len(line) + 1 for line in lines[:cut + 1]) > columns._COLUMN_CHARS
        with mock.patch.object(columns, "_byte_columns", wraps=columns._byte_columns) as chunks, \
                mock.patch.object(columns, "_line_columns",
                                  wraps=columns._line_columns) as fallback:
            got = cli._read_samples(str(samples))
        assert chunks.call_count == 2 and fallback.call_count == bool(second)
        want = reference_read_samples(str(samples))
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]

    @pytest.mark.parametrize("bad, message", [("+inf", "not a finite number"),
                                              ("abc", "not a number")])
    def test_a_bad_line_in_the_second_chunk_is_named(self, tmp_path, bad, message):
        lines, cut = self._two_chunk_lines(np.random.default_rng(36))
        lines.insert(cut + 7_000, bad)
        samples = tmp_path / "samples.txt"
        samples.write_bytes("".join(f"{line}\r\n" for line in lines).encode())
        assert _run(["fit", str(samples)]) == (
            1, "", f"error: {samples}:{cut + 7_001}: {message}: {bad!r}\n")

    @pytest.mark.parametrize("blob", [b"1.5\r\n2.5\n4.0\n1e-05\n\n7\n",
                                      b"1.5\n2.5\nabc\n"], ids=["values", "bad_line"])
    def test_a_pipe_reads_as_its_file(self, tmp_path, blob):
        """`fit /dev/stdin` fed by a pipe, which read_columns cannot seek,
        prints and writes what the same bytes in a file give."""
        samples = tmp_path / "samples.txt"
        samples.write_bytes(blob)
        (code, out, err), written = _fit(str(samples), str(tmp_path / "file"))
        piped = subprocess.run(
            [sys.executable, "-c", "import sys\nfrom cityregions.cli import main\n"
             "raise SystemExit(main(sys.argv[1:]))",
             "fit", "/dev/stdin", "--out-prefix", str(tmp_path / "pipe")],
            input=blob, capture_output=True, env=_env())
        assert (piped.returncode, piped.stdout.decode(), piped.stderr.decode()) == (
            code, out, err.replace(str(samples), "/dev/stdin"))
        assert [_bytes_or_none(tmp_path / f"pipe_{kind}.txt")
                for kind in ("fits", "ccdf")] == written

    @pytest.mark.parametrize("blob, line, byte", [
        (b"1.5\n2.5\n\xff3\n", 3, "0xff"),
        (b"1\r2\r\n\r\n3\x80\n4\n", 4, "0x80"),
        (b"\xc3(\n", 1, "0xc3"),
        (b"1\n\xe2\x82", 2, "0xe2"),
    ], ids=["lf", "cr_crlf", "bad_continuation", "cut_short"])
    def test_a_file_not_utf8_is_named_with_its_line(self, tmp_path, blob, line, byte):
        samples = tmp_path / "samples.txt"
        samples.write_bytes(blob)
        assert _run(["fit", str(samples)]) == (1, "", f"error: {samples}:{line}: not UTF-8: "
                                                      f"byte {byte}\n")


def test_a_sample_spread_past_the_float_range_fits(tmp_path):
    """x / x_min overflows for 1e10 over 1e-300; every fit still runs."""
    samples = tmp_path / "samples.txt"
    samples.write_text("1e-300\n1e10\n2.0\n")
    code, out, err = _run(["fit", str(samples)])
    rows = out.splitlines()[1:]
    assert (code, err, len(rows)) == (0, "", 4)
    assert rows[0].startswith("truncated_powerlaw ")
    assert "alpha=1.00213," in next(row for row in rows if row.startswith("powerlaw "))


@pytest.mark.parametrize("values", [
    "2.2250738585072014e-308\n5e-324\n",  # 1e3 / mean passes exp's range
    "1e308\n1e308\n1\n",  # the sum passes the float range
    "1.7976931348623157e308\n1e-300\n5\n",  # so does the last CCDF edge's power
], ids=["subnormal", "sum", "edge"])
def test_samples_at_the_ends_of_the_float_range_fit(tmp_path, values):
    samples = tmp_path / "samples.txt"
    samples.write_text(values)
    code, out, err = _run(["fit", str(samples), "--out-prefix", str(tmp_path / "fit")])
    assert (code, err, len(out.splitlines())) == (0, "", 5)
    ccdf = (tmp_path / "fit_ccdf.txt").read_text().splitlines()
    assert ccdf[-1].split(";")[0] == repr(max(map(float, values.split())))


def _out_of_range(model, what):
    return f"# excluded: {model} could not be fitted: the {what} is outside the float range"


@pytest.mark.parametrize("values, compared, excluded", [
    ("5e-324\n3.136344e-318\n", ["lognormal", "powerlaw", "truncated_powerlaw"],
     [_out_of_range("exponential", "exponential rate 1 / 1.568174e-318")]),
    ("1e-310\n5e-324\n", ["lognormal", "powerlaw", "truncated_powerlaw"],
     [_out_of_range("exponential", "exponential rate 1 / 5e-311")]),
    ("1e-315\n1e-315\n1.000000003e-315\n",  # the mean rounds to x_min
     ["lognormal", "powerlaw", "truncated_powerlaw"],
     [_out_of_range("exponential", "exponential rate 1 / 1e-315")]),
    ("5e-324\n5e-324\n1e-323\n", ["lognormal", "powerlaw"],
     [_out_of_range("exponential", "exponential rate 1 / 5e-324"),
      _out_of_range("truncated_powerlaw", "lowest rate 1e-12 / 5e-324")]),
], ids=["subnormal_mean", "subnormal_pair", "mean_at_x_min", "empty_rate_box"])
def test_a_fit_that_cannot_run_is_left_out(tmp_path, values, compared, excluded):
    samples = tmp_path / "samples.txt"
    samples.write_text(values)
    code, out, err = _run(["fit", str(samples), "--out-prefix", str(tmp_path / "fit")])
    assert (code, err, len(out.splitlines())) == (0, "", len(compared) + 1)
    fits = (tmp_path / "fit_fits.txt").read_text().splitlines()
    assert [row.split(";")[0] for row in fits[:len(compared)]] == compared
    assert fits[len(compared):] == excluded


@pytest.mark.parametrize("x_min, error", [
    ("50", "sample 0 is below x_min: 10.0 < 50.0"),
    ("-1", "x_min must be positive, got -1.0"),
], ids=["below", "negative"])
def test_an_x_min_the_samples_refuse_fails(tmp_path, x_min, error):
    """The exponential and lognormal fits would run, but the x_min is wrong."""
    samples = tmp_path / "samples.txt"
    samples.write_text("10\n60\n70\n80\n")
    assert _run(["fit", str(samples), "--x-min", x_min]) == (1, "", f"error: {error}\n")


@pytest.mark.parametrize("values, error", [
    ("1.5\n1.5\n", "all samples equal: lognormal fit is degenerate (sigma = 0)"),
    ("5e-324\n5e-324\n", "the exponential rate 1 / 5e-324 is outside the float range"),
], ids=["equal", "equal_subnormal"])
def test_fewer_than_two_fits_fail_with_the_first_error(tmp_path, values, error):
    samples = tmp_path / "samples.txt"
    samples.write_text(values)
    assert _run(["fit", str(samples)]) == (1, "", f"error: {error}\n")


def test_stage_subcommands_are_the_pipeline_stages():
    """cli names its stage subcommands without loading pipeline; they stay its STAGES."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    stages = tuple(name for name, parser in sub.choices.items()
                   if parser.get_default("run") is cli._cmd_stage)
    assert stages == pipeline.STAGES + ("all",)


def _stage_calls(*argvs):
    """The (path, overrides) each main(argv) passes to load_config, with the
    pipeline mocked out."""
    cfg = mock.Mock(out_dir="out")
    with mock.patch.object(pipeline, "load_config", return_value=cfg) as load, \
            mock.patch.object(pipeline, "run"):
        for argv in argvs:
            assert main(argv) == 0
    return [c.args for c in load.call_args_list]


class TestParserReuse:
    """One parser serves every call of main in a process and keeps nothing of
    a call for the next."""

    def test_overrides_do_not_carry_over(self, capsys):
        assert _stage_calls(
            ["stats", "--config", "c.json", "--out", "X"],
            ["stats", "--config", "c.json", "--stage-override", "rng_seed=3", "--out", "X"],
            ["stats", "--config", "c.json"],
            ["trips", "--config", "d.json", "--stage-override", "a.b=[1]"],
        ) == [("c.json", [("out_dir", "X")]),
              ("c.json", [("rng_seed", 3), ("out_dir", "X")]),
              ("c.json", []),
              ("d.json", [("a.b", [1])])]

    @pytest.mark.parametrize("bad", [
        ["stats"],  # --config missing
        ["stats", "--config", "c.json", "--stage-override", "rng_seed"],
        ["fit"],
        ["nonesuch"],
    ])
    def test_a_usage_error_leaves_the_next_call_working(self, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert _stage_calls(["stats", "--config", "c.json"]) == [("c.json", [])]

    def test_the_parser_is_built_once(self, capsys):
        cli._parser.cache_clear()
        with mock.patch.object(cli, "build_parser", wraps=build_parser) as build:
            _stage_calls(["stats", "--config", "c.json"], ["dtn", "--config", "c.json"])
        cli._parser.cache_clear()
        assert build.call_count == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_import_builds_no_parser(self):
        code = "import cityregions.cli as c; print(c._parser.cache_info().currsize)"
        assert _python(code) == "0\n"


def _env():
    """The environment with the package's sources first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cityregions.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _python(code, *args):
    """The stdout of a fresh interpreter running code with args, the
    package's sources first on its path."""
    return subprocess.run([sys.executable, "-c", code, *args], env=_env(), capture_output=True,
                          text=True, check=True).stdout


def test_earlier_fits_change_no_byte(tmp_path):
    """A process that fits A, then B, then A again writes A's bytes as a fresh
    process fitting A alone does: the memoised continued fraction is invisible."""
    rng = np.random.default_rng(24)
    sets = {"a": rng.exponential(50.0, 2000), "b": rng.lognormal(1.0, 0.5, 2000)}
    for name, values in sets.items():
        (tmp_path / f"{name}.txt").write_text("".join(f"{v!r}\n" for v in values.tolist()))
    fit_each = ("import sys\n"
                "from cityregions.cli import main\n"
                "for samples, prefix in zip(sys.argv[1::2], sys.argv[2::2]):\n"
                "    assert main(['fit', samples, '--out-prefix', prefix]) == 0\n")
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    _python(fit_each, a, str(tmp_path / "a1"), b, str(tmp_path / "b"), a, str(tmp_path / "a2"))
    _python(fit_each, a, str(tmp_path / "fresh"))
    for kind in ("fits", "ccdf"):
        fresh = (tmp_path / f"fresh_{kind}.txt").read_bytes()
        assert (tmp_path / f"a1_{kind}.txt").read_bytes() == fresh
        assert (tmp_path / f"a2_{kind}.txt").read_bytes() == fresh
