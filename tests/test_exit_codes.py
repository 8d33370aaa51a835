"""The CLI's exit-code contract, fuzzed through ``cli.main`` in process.

Config-file bytes, --set items and quote-CSV bytes are drawn together with
a flag saying whether the drawn bytes are malformed: not UTF-8, a config
line without ``=``, an unknown key, or a value that does not parse for its
kind or breaks its kind's rule (finite; "positive" and "count" also > 0).
Every run must exit 0, 2 or 3 without a traceback, exit 2 whenever the
flag is set, and leave stdout empty unless it exits 0.

Valid counts stay small, and the MC commands draw dt, maturity_days and
tau_grid from short horizons, so no drawn run simulates or allocates for
long; a count too large for the run is drawn only where the config
rejects it (moneyness_points above PATH_BUDGET).
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from expouvol import cli

# (value text, whether it passes its kind's rule)
_BAD_NUMBER = [("nan", False), ("inf", False), ("-inf", False), ("1e400", False),
               ("", False), ("abc", False), ("0x1p3", False)]
_KINDS = {
    "real": [("0", True), ("-0.4", True), ("0.5", True), ("-1e308", True), ("1e308", True),
             ("5e-324", True), ("1_000", True), ("١٠٠", True)] + _BAD_NUMBER,
    "positive": [("0.5", True), ("2", True), ("1e308", True), ("5e-324", True),
                 ("1e-300", True), ("١", True), ("0", False), ("-0", False),
                 ("-1", False)] + _BAD_NUMBER,
    "count": [("1", True), ("3", True), ("1_0", True), ("٣", True), ("0", False),
              ("-2", False), ("1.5", False), ("1e3", False), ("nan", False), ("", False)],
    "int": [("0", True), ("-1", True), ("12345", True), ("1" + "0" * 400, True),
            ("1" + "0" * 5000, False), ("1.5", False), ("1e3", False), ("nan", False),
            ("", False)],
    "bool": [("true", True), ("FALSE", True), ("1", True), ("0", True), ("yes", True),
             ("No", True), ("maybe", False), ("", False), ("2", False)],
    "grid": [("0", True), ("0,1,5", True), ("-1,0", True), ("0.05", True), ("1e308", True),
             ("0,nan", False), ("0,inf", False), ("", False), ("0,,1", False), ("a", False)],
}


def _invalid(kind):
    return [(text, ok) for text, ok in _KINDS[kind] if not ok]


# each key's kind, plus an ordinary value drawn about as often as all its valid extremes
_ORDINARY = {"sigma0_annual": "0.1655", "tau_grid": "0,1,5", "antithetic": "false"}
_VALUES = {key: _KINDS[kind] + [(_ORDINARY.get(key, str(default)), True)] * 6
           for key, (default, kind) in cli._KEYS.items()}
# moneyness_points above PATH_BUDGET is valid for its kind but refused by the config
_VALUES["moneyness_points"] = _KINDS["count"] + [("1" + "0" * 30, True)]
_VALUES["n_paths"] = [("1", True), ("2", True), ("64", True)] + _invalid("count")
# The MC commands simulate maturity_days / dt (stats: max(tau_grid) / dt + 100) steps.
_MC_VALUES = {**_VALUES,
              "dt": [("0.5", True), ("1", True)] + _invalid("positive"),
              "maturity_days": [("0.5", True), ("2", True)] + _invalid("positive"),
              "tau_grid": [("0", True), ("0,1", True), ("-1,0,2", True), ("0.05", True)]
              + _invalid("grid")}

_BAD_LINES = ["bogus = 1", "Spot = 100", " = 3", "output = x.csv",
              "spot 100", "moneyness_points"]
_NEUTRAL_LINES = ["", "   ", "# comment = with equals", "\t# indented"]
_BOM = b"\xef\xbb\xbf"
_NOT_UTF8 = [b"\xff", b"\xfe", b"\xc0", b"\x80", b"\xe9"]
# quote rows: mostly plausible (strike, maturity_days, bid, ask), some junk
_QUOTE_ROWS = st.tuples(st.sampled_from(["90", "95", "100", "105", "110"]),
                        st.sampled_from(["5", "10", "20"]),
                        st.sampled_from([0.5, 1.5, 3.0, 6.5]),
                        st.sampled_from([0.02, 0.5])).map(
    lambda row: [row[0], row[1], repr(row[2]), repr(row[2] + row[3])])
_JUNK_ROWS = st.lists(st.sampled_from(["100", "10", "1.5", "0", "-1", "nan", "inf", "1e308",
                                       "1.7e308", "", "x", " 3 "]),
                      min_size=2, max_size=5)
COMMANDS = ["price", "smile", "density", "greeks", "simulate", "stats", "calibrate"]


def _rarely(draw, n=5):
    """True about once in ``n`` draws."""
    return draw(st.integers(1, n)) == 1


@st.composite
def _assignment(draw, values, spacing=(" = ", "=", "  =\t")):
    key = draw(st.sampled_from(sorted(values)))
    ok = not _rarely(draw, 6)
    text = draw(st.sampled_from([text for text, valid in values[key] if valid == ok]))
    return f"{key}{draw(st.sampled_from(spacing))}{text}", ok


@st.composite
def _config_line(draw, values):
    kind = draw(st.sampled_from(["value"] * 8 + ["bad", "neutral", "nul"]))
    if kind == "bad":
        return draw(st.sampled_from(_BAD_LINES)), False
    if kind == "neutral":
        return draw(st.sampled_from(_NEUTRAL_LINES)), True
    line, ok = draw(_assignment(values))
    if kind == "nul":   # a NUL anywhere in key = value breaks the key or the value
        at = draw(st.integers(0, len(line)))
        return line[:at] + "\x00" + line[at:], False
    return line + draw(st.sampled_from(["", "  # note", " #x=1"])), ok


def _encode(draw, text):
    """UTF-8 bytes of ``text``, maybe with a BOM and a byte that is not UTF-8."""
    data = text.encode()
    if draw(st.booleans()):
        data = _BOM + data
    if _rarely(draw, 8):
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from(_NOT_UTF8)) + data[at:], False
    return data, True


@st.composite
def _config_file(draw, values):
    lines = draw(st.lists(_config_line(values), max_size=4))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data, utf8 = _encode(draw, newline.join(text for text, _ in lines) + newline)
    return data, utf8 and all(ok for _, ok in lines)


@st.composite
def _set_item(draw, values):
    kind = draw(st.sampled_from(["value"] * 8 + ["bad", "no-equals"]))
    if kind == "bad":
        return draw(st.sampled_from(["bogus=1", "Spot=100", "=3"])), False
    if kind == "no-equals":
        return draw(st.sampled_from(["spot", "spot:100", ""])), False
    return draw(_assignment(values, spacing=("=", " = ")))


@st.composite
def _quote_file(draw):
    header, ok = draw(st.sampled_from([("strike,maturity_days,bid,ask", True),
                                       ("Strike, maturity_days, mid", True),
                                       ("strike,maturity,bid,ask", False), ("", False)]))
    rows = draw(st.lists(st.one_of(_QUOTE_ROWS, _QUOTE_ROWS, _QUOTE_ROWS, _JUNK_ROWS),
                         max_size=8))
    fields = len(header.split(","))   # a mid-only chain quotes its mid as the bid
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join([header] + [",".join(row[:fields]) for row in rows]) + newline
    if _rarely(draw, 8):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\x00" + text[at:]
    data, utf8 = _encode(draw, text)
    return data, ok and utf8


@st.composite
def cases(draw):
    """(command, config bytes or None, --set items, quote bytes or None, malformed)."""
    command = draw(st.sampled_from(COMMANDS))
    values = _MC_VALUES if command in ("simulate", "stats") else _VALUES
    config, ok = draw(st.one_of(st.just((None, True)), _config_file(values)))
    items = draw(st.lists(_set_item(values), max_size=3))
    ok = ok and all(item_ok for _, item_ok in items)
    quotes = None
    if command == "calibrate":
        quotes, quotes_ok = draw(_quote_file())
        ok = ok and quotes_ok
    return command, config, [text for text, _ in items], quotes, not ok


# a file argument: none, a file in the run's directory, or one in a missing directory
_FILES = st.sampled_from([None, "out.csv", "no-such-dir/out.csv"])
_FILE_OPTION = {"simulate": "--dump-paths", "calibrate": "--repricing"}
# set before the drawn items, which may override them: the default n_paths
# would simulate for seconds, and calibrate needs sigma0_annual
_BASE = {"simulate": ["--set", "n_paths=64"], "stats": ["--set", "n_paths=64"],
         "calibrate": ["--set", "sigma0_annual=0.1655"]}


_CHAIN = b"strike,maturity_days,bid,ask\n95,10,6.5,7.0\n100,10,1.5,2.0\n105,20,0.5,1.0\n"


def _plain(data):
    """``data`` without a leading BOM and with LF line ends."""
    return None if data is None else data.removeprefix(_BOM).replace(b"\r\n", b"\n")


@settings(max_examples=100, deadline=5000)
@given(case=cases(), via=st.sampled_from(["--config", cli.ENV_CONFIG]),
       output=_FILES, extra=_FILES)
# numpy overflows: exit 3, not a warning and NaN cells
@example(case=("price", None, ["spot=1e308"], None, False),
         via="--config", output=None, extra=None)
@example(case=("stats", b"m = 1e200\n", [], None, False),
         via="--config", output=None, extra=None)
# a repeated key: the last value wins, and every value is checked
@example(case=("price", b"spot = abc\r\nspot = 100\r\n", [], None, True),
         via="--config", output=None, extra=None)
@example(case=("greeks", None, ["spot=-1", "spot=100"], None, True),
         via="--config", output=None, extra=None)
# a file that cannot be written: exit 2, and the stdout table is not printed
@example(case=("simulate", None, [], None, False),
         via="--config", output=None, extra="no-such-dir/out.csv")
@example(case=("calibrate", None, [], _CHAIN, False),
         via="--config", output=None, extra="no-such-dir/out.csv")
# a config file with a BOM reads as the same file without one
@example(case=("price", b"\xef\xbb\xbfmoneyness_points = 3\n", [], None, False),
         via=cli.ENV_CONFIG, output=None, extra=None)
def test_exit_code_contract(case, via, output, extra):
    command, config, sets, quotes, malformed = case
    with tempfile.TemporaryDirectory() as tmp:
        files = [(opt, os.path.join(tmp, name)) for opt, name in
                 [("--output", output), (_FILE_OPTION.get(command), extra)]
                 if opt and name]
        file_args = [arg for pair in files for arg in pair]
        code, out, err = run(command, config, sets, quotes, tmp, via, file_args)
        written = [os.path.exists(path) for _, path in files]
        if (config, quotes) != (_plain(config), _plain(quotes)):
            # a BOM and CRLF line ends change nothing
            assert run(command, _plain(config), sets, _plain(quotes), tmp, via,
                       file_args) == (code, out, err)
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if malformed:
        assert code == 2, err
    if code != 0:
        assert out == ""
    else:
        assert all(written)
        assert (out == "") == ("--output" in dict(files))


def run(command, config, sets, quotes, tmp, via, file_args):
    """Exit code, stdout and stderr of one in-process run."""
    argv = list(_BASE.get(command, []))
    env = {cli.ENV_CONFIG: ""}
    if config is not None:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "wb") as fh:
            fh.write(config)
        if via == "--config":
            argv += ["--config", path]
        else:
            env[cli.ENV_CONFIG] = path
    for item in sets:
        argv += ["--set", item]
    argv.append(command)
    if quotes is not None:
        path = os.path.join(tmp, "quotes.csv")
        with open(path, "wb") as fh:
            fh.write(quotes)
        argv += ["--quotes", path]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv + file_args)
    return code, out.getvalue(), err.getvalue()
