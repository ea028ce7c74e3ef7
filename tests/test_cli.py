"""`cityregions.cli`: the one-block sample read of `fit` against the per-line
reader it replaced, and the one parser `main` reuses across calls."""

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
from cityregions import cli, pipeline
from cityregions.cli import build_parser, main

from .oracles import reference_read_samples

_LINES = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**20).map(str),
    st.sampled_from(["", " ", "\t", " \x0b\x0c ", "\x85 ", " 1.5 ", "1_0", " 1.5",
                     "nan", "-inf", "inf", "abc"]),
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
    """The block read gives every exit code, message and byte the line loop gave."""

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


def _python(code, *args):
    """The stdout of a fresh interpreter running code with args, the
    package's sources first on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cityregions.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
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
