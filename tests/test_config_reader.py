"""load_config against its configparser-only form, on generated INI texts.

load_config reads the plain INI form in one line scan and hands any other
text to configparser; either way it must return what the configparser-only
reader below returns, or raise the same exception class with the same text.
"""

import configparser
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rydgate.config import (RunConfig, _SECTIONS, _check_range, _configparser_sections, _convert,
                            _plain_sections, load_config)
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


KNOWN = {name: list(known) for name, (_, known) in _SECTIONS.items()}
SECTION_NAMES = [*KNOWN, "DEFAULT", "nonsense", "Pulse", " pulse ", "a]b", "x = 1"]
KEYS = [key for keys in KNOWN.values() for key in keys] + ["bogus", "format", "a b"]
# in range, out of range, unparseable, non-finite, empty and with "=" or ":"
PLAIN_VALUES = ["0.5", "2", "60", "3.3", "100", "7.5", "1.0", "2.5", "-1", "0", "1e-15",
                "41", "inf", "nan", "abc", "", "a:b", "4 = 5"]
# "%", and inline comments: the round-by-round scan reads "1#x #y ;z" as "1#x #y"
VALUES = PLAIN_VALUES + ["60%", "%(x)s", "1#x #y ;z", "1 # c", "2 ;c", "1;x"]
ODD = [" ", "\t", "\f", "\r", "\x85", "\u2028", "\xa0", "\x1c"]


@st.composite
def mixed_case(draw, text):
    flips = draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
    return "".join(c.upper() if flip else c for c, flip in zip(text, flips))


def key_line(keys):
    """A plain key line: an unindented "key = value" without "#", ";" or ":" before "="."""
    return st.builds("{}{}{}".format, st.sampled_from(keys).flatmap(mixed_case),
                     st.sampled_from(["=", " = ", " =", "= "]), st.sampled_from(PLAIN_VALUES))


# a plain text: blocks of a known header and key lines, keys mostly of its
# section and new in it (strategies are built once; building them per draw
# is most of the test's time)
SECTION_BODIES = {
    name: st.lists(st.one_of(key_line(keys), key_line(keys), key_line(keys), key_line(KEYS),
                             st.sampled_from(["", "  ", "# note", "  ; a = 1"])),
                   min_size=1, max_size=4,
                   unique_by=lambda line: line.partition("=")[0].strip().lower())
    for name, keys in KNOWN.items()}
# one-step edits of a key line that leave the plain form: an indent (a
# continuation line after a key line), ":" as the delimiter, odd characters
# or an inline comment at the end
EDITS = [(lambda line, piece: piece + line, st.sampled_from([" ", "  ", "\t", "\f"])),
         (lambda line, piece: line.replace("=", piece, 1),
          st.sampled_from([": ", " : ", ":=", ":b ="])),
         (lambda line, piece: line + piece,
          st.sampled_from([*ODD, " # c", ";c", " ;x", "#x #y ;z", "%"]))]
# lines added to a text: headers of every kind, continuation lines, lines
# without a delimiter or key, "%" and odd characters
OTHER_LINES = st.one_of(
    st.builds("[{}]{}".format, st.sampled_from(SECTION_NAMES),
              st.sampled_from(["", " # c", ";c", "junk", " = 1", "\x85"])),
    st.builds("{}{}".format, st.sampled_from(["  ", "\t"]), st.sampled_from(VALUES)),
    st.builds("{} = {}".format, st.sampled_from(KEYS), st.sampled_from(VALUES)),
    st.sampled_from(["justtext", "[]", "[pulse", "= 1", ": 1", "%", "tau_us", "a\rb = 1",
                     "\f", "\x85", "\u2028", "\f# c"]))


@st.composite
def config_text(draw):
    """A plain text, then none to two one-step edits or added lines."""
    lines = []
    for name in draw(st.lists(st.sampled_from(list(KNOWN)), min_size=1, max_size=3,
                              unique=True)):
        lines += [f"[{name}]", *draw(SECTION_BODIES[name])]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.integers(0, len(EDITS)))
        key_lines = [i for i, line in enumerate(lines) if "=" in line]
        if kind == len(EDITS) or not key_lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(OTHER_LINES))
        else:
            edit, pieces = EDITS[kind]
            at = draw(st.sampled_from(key_lines))
            lines[at] = edit(lines[at], draw(pieces))
    return draw(st.sampled_from(["\n", "\n", "\r\n"])).join(lines) + draw(
        st.sampled_from(["", "\n"]))


dotted = st.builds("{}.{}".format, st.sampled_from(SECTION_NAMES[:7]),
                   st.sampled_from(KEYS).flatmap(mixed_case))
overrides = st.one_of(st.just({}), st.dictionaries(
    st.one_of(dotted, dotted, dotted, st.sampled_from(["pulse", "a.b.c"])),
    st.one_of(st.sampled_from(VALUES), st.sampled_from(VALUES), st.none()), max_size=3))


def ordered(sections):
    return [(name, list(keys.items())) for name, keys in sections.items()]


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
@given(text=config_text(), flags=overrides)
def test_load_config_equals_configparser_reader(cfg_dir, text, flags):
    path = cfg_dir / "t.cfg"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(lambda: load_config(path, flags)) == outcome(
        lambda: reference_load_config(path, flags))
    # where the line scan reads the text, configparser reads the same
    # sections, keys and values in the same order, errors or not to come;
    # both take load_config's triples of the flags it accepts
    read = path.read_text(encoding="utf-8")
    triples = [(*dotted.split("."), raw) for dotted, raw in flags.items()]
    if all(len(triple) == 3 and triple[2] is not None for triple in triples):
        sections = outcome(lambda: _plain_sections(read, triples))
        if isinstance(sections, dict):
            assert ordered(sections) == ordered(
                _configparser_sections(path, read, str(path), triples))
    assert outcome(lambda: load_config(None, flags)) == outcome(
        lambda: reference_load_config(None, flags))


def test_every_default_passes_its_rule():
    # load_config range-checks only the keys a file or flag gave
    for name, (cls, known) in _SECTIONS.items():
        for key in known:
            _check_range(name, key, getattr(cls(), key))
    assert load_config(None) == reference_load_config(None) == RunConfig()
