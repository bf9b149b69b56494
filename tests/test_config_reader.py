"""load_config against a configparser reader, on generated INI texts.

load_config reads the plain INI form in one line scan. On a plain text it
must return what the configparser reader below returns, or raise the same
exception class with the same text; a text with one line outside the plain
form must raise ParseError naming that line.
"""

import configparser
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rydgate.config import RunConfig, _SECTIONS, _check_range, _convert, _sections, load_config
from rydgate.errors import ParseError, ValidationError


def reference_load_config(path=None, overrides=None) -> RunConfig:
    """The former load_config: configparser on every text, every key range-checked."""
    for dotted, raw in (overrides or {}).items():
        if dotted.count(".") != 1 or raw is None:
            raise ParseError(f"override {dotted!r} = {raw!r}: want 'section.key' = value")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ParseError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ParseError(f"malformed config file {path}: {exc}") from exc
    for dotted, raw in (overrides or {}).items():
        section, key = dotted.split(".")
        parser.read_dict({section: {key: raw}})

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValidationError(f"unknown config section [{section}]")
    kwargs = {}
    for name, (cls, known) in _SECTIONS.items():
        given = {}
        if parser.has_section(name):
            values = dict(parser.items(name, raw=True))
            given = {key: values[key] for key in parser.options(name)}
        for key in given:
            if key not in known:
                raise ValidationError(f"unknown key '{key}' in section [{name}]")
        section = cls(**{key: _convert(name, key, known[key], raw) for key, raw in given.items()})
        for key in known:
            _check_range(name, key, getattr(section, key))
        kwargs[name] = section
    cfg = RunConfig(**kwargs)
    if cfg.interactions.r_min_um >= cfg.interactions.r_max_um:
        raise ValidationError("[interactions] r_min_um must be < r_max_um")
    return cfg


def reference_sections(text: str, overrides: list) -> dict:
    """{section: {key: value}} of an INI text as configparser reads it, with the overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    parser.read_string(text)
    for section, key, raw in overrides:
        parser.read_dict({section: {key: raw}})
    return {name: dict(parser.items(name, raw=True)) for name in parser.sections()}


KNOWN = {name: list(known) for name, (_, known) in _SECTIONS.items()}
# [DEFAULT], which configparser merges into every section, is left out: the
# scan reads it as an unknown section (tests/test_config_cli.py)
SECTION_NAMES = [*KNOWN, "nonsense", "Pulse", " pulse ", "a]b", "x = 1"]
KEYS = [key for keys in KNOWN.values() for key in keys] + ["bogus", "format", "a b"]
# in range, out of range, unparseable, non-finite, empty, with "=" or ":",
# and "%", which neither reader interpolates
PLAIN_VALUES = ["0.5", "2", "60", "3.3", "100", "7.5", "1.0", "2.5", "-1", "0", "1e-15",
                "41", "inf", "nan", "abc", "", "a:b", "4 = 5", "60%", "%(x)s"]
# override values are raw strings: neither reader looks for comments in them
VALUES = PLAIN_VALUES + ["1#x #y ;z", "1 # c", "2 ;c", "1;x"]
# white space that str.strip removes and no reader takes as a line break
ODD = [" ", "\t", "\f", "\x85", "\u2028", "\xa0", "\x1c"]


@st.composite
def mixed_case(draw, text):
    flips = draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
    return "".join(c.upper() if flip else c for c, flip in zip(text, flips))


def key_line(keys):
    """A plain key line: an unindented "key = value" without "#", ";" or ":" before "="."""
    return st.builds("{}{}{}{}".format, st.sampled_from(keys).flatmap(mixed_case),
                     st.sampled_from(["=", " = ", " =", "= "]), st.sampled_from(PLAIN_VALUES),
                     st.sampled_from(["", "", "", *ODD]))


BLANKS = st.sampled_from(["", "  ", "# note", "  ; a = 1", "\f# c", "\x85", ";;"])
# the lines under a header, keys mostly of its section (any key under an
# unknown one) and new in it (strategies are built once; building them per
# draw is most of the test's time)
SECTION_BODIES = {
    name: st.lists(st.one_of(key_line(keys), key_line(keys), key_line(keys), key_line(KEYS),
                             BLANKS),
                   max_size=4, unique_by=lambda line: line.partition("=")[0].strip().lower())
    for name, keys in {**dict.fromkeys(SECTION_NAMES, KEYS), **KNOWN}.items()}


def _lines_where(lines, test):
    return [i for i, line in enumerate(lines) if test(line.strip())]


def _is_header(stripped):
    return stripped.startswith("[")


def _is_key_line(stripped):
    return "=" in stripped and not stripped.startswith(("[", "#", ";"))


# one edit that takes a plain text out of the plain form: edit(draw, lines)
# changes lines in place and returns the index of the line now refused, every
# line before it still plain
def _indent(draw, lines):
    at = draw(st.sampled_from(_lines_where(lines, lambda s: _is_header(s) or _is_key_line(s))))
    lines[at] = draw(st.sampled_from(ODD)) + lines[at]
    return at


def _colon(draw, lines):
    at = draw(st.sampled_from(_lines_where(lines, _is_key_line)))
    lines[at] = lines[at].replace("=", draw(st.sampled_from([": ", " : ", ":", ":=", ":b ="])), 1)
    return at


def _inline_comment(draw, lines):
    at = draw(st.sampled_from(_lines_where(lines, lambda s: _is_header(s) or _is_key_line(s))))
    lines[at] += draw(st.sampled_from([" # c", ";c", " ;x", "#x #y ;z", " #"]))
    return at


def _inserted(draw, lines, line, first=0, last=None):
    at = draw(st.integers(first, len(lines) if last is None else last))
    lines.insert(at, line)
    return at


def _continuation(draw, lines):
    return _inserted(draw, lines, draw(st.sampled_from(ODD)) + draw(
        st.sampled_from(["50", "1.0", "tau_us = 1", "[pulse]", "abc"])))


def _stray_line(draw, lines):
    # "a\rb = 1" reads as the two lines "a" and "b = 1"
    return _inserted(draw, lines, draw(st.sampled_from(
        ["justtext", "tau_us", "[pulse", "[]", "= 1", ": 1", "[pulse]junk", "[pulse] = 1",
         "a\rb = 1"])))


def _repeated_header(draw, lines):
    header = draw(st.sampled_from(_lines_where(lines, _is_header)))
    return _inserted(draw, lines, lines[header].strip(), first=header + 1)


def _repeated_key(draw, lines):
    at = draw(st.sampled_from(_lines_where(lines, _is_key_line)))
    key = lines[at].partition("=")[0].strip()
    return _inserted(draw, lines, draw(key_line([key.lower()])), first=at + 1, last=at + 1)


def _key_before_header(draw, lines):
    first_header = _lines_where(lines, _is_header)[0]
    return _inserted(draw, lines, draw(key_line(KEYS)), last=first_header)


EDITS = [_indent, _colon, _inline_comment, _continuation, _stray_line, _repeated_header,
         _repeated_key, _key_before_header]


@st.composite
def config_text(draw):
    """(text, refused): a plain text, or one edit of it and the 0-based index of its refused line.

    A plain text is an optional run of blank and comment lines, then one to
    four sections with distinct headers. refused is None for an unedited text.
    """
    lines = draw(st.lists(BLANKS, max_size=2))
    for name in draw(st.lists(st.sampled_from(SECTION_NAMES), min_size=1, max_size=4,
                              unique=True)):
        lines += [f"[{name}]" + draw(st.sampled_from(["", "", *ODD])), *draw(SECTION_BODIES[name])]
    edit = draw(st.sampled_from([None, None, *EDITS]))
    refused = None
    if edit is not None and (edit not in (_colon, _repeated_key)
                             or _lines_where(lines, _is_key_line)):
        refused = edit(draw, lines)
    text = draw(st.sampled_from(["\n", "\n", "\r\n"])).join(lines) + draw(
        st.sampled_from(["", "\n"]))
    return text, refused


dotted = st.builds("{}.{}".format, st.sampled_from(SECTION_NAMES),
                   st.sampled_from(KEYS).flatmap(mixed_case))
overrides = st.one_of(st.just({}), st.dictionaries(
    st.one_of(dotted, dotted, dotted, st.sampled_from(["pulse", "a.b.c"])),
    st.one_of(st.sampled_from(VALUES), st.sampled_from(VALUES), st.none()), max_size=3))


def outcome(call):
    try:
        return call()
    except Exception as exc:  # the outcomes compared, errors included
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def cfg_dir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=config_text(), flags=overrides)
def test_plain_texts_read_as_configparser_reads_them_and_others_are_refused(cfg_dir, case, flags):
    text, refused = case
    path = cfg_dir / "t.cfg"
    path.write_bytes(text.encode("utf-8"))
    triples = [(*dotted.split("."), raw) for dotted, raw in flags.items()]
    well_formed = [triple for triple in triples if len(triple) == 3 and triple[2] is not None]
    if refused is None:
        assert outcome(lambda: load_config(path, flags)) == outcome(
            lambda: reference_load_config(path, flags))
        # the same sections, keys and values in the same order, errors or not to come
        read = path.read_text(encoding="utf-8")
        assert (list(map(list, _sections(read, path, well_formed).items()))
                == list(map(list, reference_sections(read, well_formed).items())))
    else:
        # a flag cannot mend a refused line
        flags = {f"{section}.{key}": raw for section, key, raw in well_formed}
        with pytest.raises(ParseError, match=rf"^malformed config file {re.escape(str(path))}, "
                                             rf"line {refused + 1}: "):
            load_config(path, flags)
    assert outcome(lambda: load_config(None, flags)) == outcome(
        lambda: reference_load_config(None, flags))


def test_every_default_passes_its_rule():
    # load_config range-checks only the keys a file or flag gave
    for name, (cls, known) in _SECTIONS.items():
        for key in known:
            _check_range(name, key, getattr(cls(), key))
    assert load_config(None) == reference_load_config(None) == RunConfig()
