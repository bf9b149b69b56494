"""Every rydgate record keeps the contract of the frozen dataclass it replaced.

Each Record subclass is compared with a dataclass(frozen=True) twin made
from its own annotations and defaults: construction, repr, ==, hash and
the refused assignments behave alike, down to the error texts.
"""

import dataclasses
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import rydgate  # noqa: F401  (loads every record class)
from rydgate._record import Record
from rydgate.config import RunConfig
from rydgate.dynamics import SimConfig
from rydgate.errors import ValidationError
from rydgate.gate import PulseShape

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__name__)

# repr(RunConfig()) as the dataclass version of the package printed it
RUN_CONFIG_REPR = (
    "RunConfig(trap=TrapSection(alpha=np.float64(1408965328.4663334), beta=4087823.0283711525,"
    " omega_rf_mhz=30.0, mass_amu=39.962590866, omega_z_mhz_override=None, eta_override=0.5),"
    " dressing=DressingSection(omega_mw_mhz=400.0, delta_s_mhz=136.074, delta_p_mhz=293.957,"
    " pol_p=-2000000000.0, pol_s=925000000.0, d1=1.0262584988416888e-26),"
    " interactions=InteractionsSection(c6_ghz_um6=0.3, r_min_um=2.0, r_max_um=10.0,"
    " points=100), pulse=PulseSection(omega0_mhz=0.5, delta0_mhz=0.639, tau_us=60.0),"
    " simulation=SimulationSection(blockade_mhz=2.5, n_phonon_max=5, rtol=1e-09, atol=1e-12,"
    " n_output=201, tau0_us=132.0), output=OutputSection(path=''))")


def sample(kind, i):
    """A valid value of an annotated type; i tells samples apart."""
    if isinstance(kind, type) and issubclass(kind, Record):
        return kind(**required(kind, i))
    if kind is np.ndarray:
        return np.arange(3.0) + i
    if kind is tuple:
        return (0.5 + i, 0.25)
    return {float: 1.5 + i, int: 3 + i, str: f"X{i}"}[kind]


def required(cls, shift=0):
    """Keyword arguments for the fields of cls without a default."""
    return {name: sample(kind, i + shift)
            for i, (name, kind) in enumerate(cls.__annotations__.items()) if name not in vars(cls)}


def twin(cls):
    """The frozen dataclass of cls's fields, defaults and __post_init__, under the same name."""
    specs = [(name, kind) if name not in vars(cls) else
             (name, kind, dataclasses.field(default=vars(cls)[name]))
             for name, kind in cls.__annotations__.items()]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, namespace=namespace)


def outcome(fn):
    """("value", repr of the result) or (exception class name, text)."""
    try:
        return "value", repr(fn())
    except Exception as exc:  # the two sides must fail alike
        return type(exc).__name__, str(exc)


def test_every_record_is_a_documented_non_dataclass():
    assert len(RECORDS) == 20
    assert {cls.__module__ for cls in RECORDS} == {
        f"rydgate.{m}" for m in ("trap", "modes", "dressing", "interactions", "franck_condon",
                                 "gate", "dynamics", "config")}
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS)
    assert all(cls.__doc__ for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_construction_follows_the_annotations(cls):
    kwargs = required(cls)
    record = cls(**kwargs)
    assert tuple(vars(record)) == cls._fields == tuple(cls.__annotations__)
    for name in cls._fields:  # given values as passed, the others the class defaults
        assert getattr(record, name) is kwargs.get(name, vars(cls).get(name))
    positional = cls(*vars(record).values())
    assert all(getattr(positional, name) is getattr(record, name) for name in cls._fields)
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    dc = twin(cls)
    too_many = (*vars(record).values(), 0)
    for args, kw in (((), {}), ((), kwargs), ((), {**kwargs, "nonfield": 1}), (too_many, {})):
        assert outcome(lambda: cls(*args, **kw)) == outcome(lambda: dc(*args, **kw))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_eq_and_hash_as_the_frozen_dataclass(cls):
    kwargs, dc = required(cls), twin(cls)
    record, dc_record = cls(**kwargs), dc(**kwargs)
    assert repr(record) == repr(dc_record)
    assert outcome(lambda: hash(record)) == outcome(lambda: hash(dc_record))
    assert outcome(lambda: record == cls(**kwargs)) == outcome(lambda: dc_record == dc(**kwargs))
    for i, (name, kind) in enumerate(cls.__annotations__.items()):
        changed = {**kwargs, name: sample(kind, i + 10)}
        assert outcome(lambda: record == cls(**changed)) == outcome(
            lambda: dc_record == dc(**changed)), name
    assert record.__eq__(dc_record) is NotImplemented
    assert record.__eq__(tuple(vars(record).values())) is NotImplemented
    assert record != object()


def test_run_config_repr_eq_and_hash():
    cfg = RunConfig()
    assert repr(cfg) == RUN_CONFIG_REPR
    assert cfg == RunConfig() and hash(cfg) == hash(RunConfig())
    assert hash(cfg) == hash(tuple(getattr(cfg, name) for name in RunConfig._fields))
    assert cfg != RunConfig(output=type(cfg.output)(path="x"))
    assert PulseShape(1.0, 2.0, 3.0) != PulseShape(1.0, 2.0, 4.0)
    assert pickle.loads(pickle.dumps(cfg)) == cfg


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    # the dataclass raises FrozenInstanceError, an AttributeError, with the same text
    record, dc_record = cls(**required(cls)), twin(cls)(**required(cls))
    for name in (*cls._fields, "nonfield"):
        for act, text in ((lambda obj: setattr(obj, name, 0), "assign to"),
                          (lambda obj: delattr(obj, name), "delete")):
            with pytest.raises(AttributeError, match=f"^cannot {text} field '{name}'$"):
                act(record)
            with pytest.raises(AttributeError, match=f"^cannot {text} field '{name}'$"):
                act(dc_record)
    assert tuple(vars(record)) == cls._fields


def test_post_init_still_validates():
    with pytest.raises(ValidationError, match="pulse detuning scale delta0 must be > 0"):
        PulseShape(1.0, 0.0, 60.0)
    with pytest.raises(ValidationError, match="n_phonon_max must lie in"):
        SimConfig(1.0, 1.0, 0.5, PulseShape(1.0, 1.0, 60.0), n_phonon_max=0)
    with pytest.raises(ValidationError, match="n_output must be an integer"):
        SimConfig(1.0, 1.0, 0.5, PulseShape(1.0, 1.0, 60.0), n_output=True)


def test_cli_and_plain_config_import_neither_dataclasses_nor_configparser(tmp_path):
    colon = tmp_path / "colon.cfg"
    with open(os.path.join(REPO, "configs", "gate_design.cfg"), encoding="utf-8") as handle:
        colon.write_text(handle.read().replace(" = ", ": "), encoding="utf-8")
    code = textwrap.dedent(f"""
        import sys
        import rydgate.cli
        from rydgate.config import load_config
        from rydgate.errors import ParseError
        load_config("configs/gate_design.cfg")
        assert "dataclasses" not in sys.modules and "configparser" not in sys.modules
        try:
            load_config({str(colon)!r})
        except ParseError as exc:
            # line 7, "omega0_mhz: 0.5", is the first key line
            assert str(exc).startswith(f"malformed config file {{{str(colon)!r}}}, line 7: "), exc
        else:
            raise AssertionError("the ':' form was read")
        assert "configparser" not in sys.modules
    """)
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
