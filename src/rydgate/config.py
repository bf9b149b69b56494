"""Config-file loading and validation.

One INI-style file with sections [trap], [dressing], [interactions],
[pulse], [simulation], [output]. Ordinary frequencies in MHz, times in us,
lengths in um. Unknown sections or keys are rejected; every default is a
documented physical operating point (see README). An empty or absent file
yields the all-defaults configuration.
"""

import configparser
import math
from dataclasses import dataclass, fields

from ._dop853 import RTOL_FLOOR
from .constants import ATOMIC_MASS, CA40_MASS, E_CHARGE, TWO_PI, mhz
from .dressing import D1_DEFAULT, MWDrive, POL_P_DEFAULT, POL_S_DEFAULT
from .dynamics import SimConfig
from .errors import ParseError, ValidationError
from .gate import PulseShape
from .trap import TrapConfig, from_secular, secular_frequencies

# Default trap operating point: Ca-40, axial 1 MHz, radial 4 MHz, rf 30 MHz.
_DEFAULT_TRAP = from_secular(
    omega_z=TWO_PI * 1e6,
    omega_rho=TWO_PI * 4e6,
    omega_rf=TWO_PI * 30e6,
    mass=CA40_MASS,
)


@dataclass(frozen=True)
class TrapSection:
    alpha: float = _DEFAULT_TRAP.alpha          # V/m^2
    beta: float = _DEFAULT_TRAP.beta            # V/m^2
    omega_rf_mhz: float = 30.0
    mass_amu: float = 39.962590866
    omega_z_mhz_override: float = None          # derives beta when set
    eta_override: float = 0.5                   # Lamb-Dicke parameter used downstream

    def trap_config(self) -> TrapConfig:
        mass = self.mass_amu * ATOMIC_MASS
        beta = self.beta
        if self.omega_z_mhz_override is not None:
            beta = mass * (mhz(self.omega_z_mhz_override) * 1e6) ** 2 / (4.0 * E_CHARGE)
        return TrapConfig(
            alpha=self.alpha,
            beta=beta,
            omega_rf=mhz(self.omega_rf_mhz) * 1e6,
            mass=mass,
        )


@dataclass(frozen=True)
class DressingSection:
    omega_mw_mhz: float = 400.0
    delta_s_mhz: float = 136.074
    delta_p_mhz: float = 293.957
    pol_p: float = POL_P_DEFAULT   # reduced polarizability, m^2/J
    pol_s: float = POL_S_DEFAULT
    d1: float = D1_DEFAULT         # C m

    def mw_drive(self) -> MWDrive:
        return MWDrive(
            omega_mw_rabi=mhz(self.omega_mw_mhz),
            delta_s=mhz(self.delta_s_mhz),
            delta_p=mhz(self.delta_p_mhz),
            d1=self.d1,
        )


@dataclass(frozen=True)
class InteractionsSection:
    c6_ghz_um6: float = 0.3
    r_min_um: float = 2.0
    r_max_um: float = 10.0
    points: int = 100

    @property
    def c6(self) -> float:
        return mhz(self.c6_ghz_um6 * 1e3)  # rad/us um^6


@dataclass(frozen=True)
class PulseSection:
    omega0_mhz: float = 0.5
    delta0_mhz: float = 0.639
    tau_us: float = 60.0

    def pulse_shape(self) -> PulseShape:
        return PulseShape(
            omega0=mhz(self.omega0_mhz),
            delta0=mhz(self.delta0_mhz),
            tau=self.tau_us,
        )


@dataclass(frozen=True)
class SimulationSection:
    blockade_mhz: float = 2.5
    n_phonon_max: int = 5
    rtol: float = 1e-9
    atol: float = 1e-12
    n_output: int = 201
    tau0_us: float = 132.0  # dressed-state lifetime for the loss estimate


@dataclass(frozen=True)
class OutputSection:
    path: str = ""          # empty -> stdout


@dataclass(frozen=True)
class RunConfig:
    trap: TrapSection = TrapSection()
    dressing: DressingSection = DressingSection()
    interactions: InteractionsSection = InteractionsSection()
    pulse: PulseSection = PulseSection()
    simulation: SimulationSection = SimulationSection()
    output: OutputSection = OutputSection()

    def sim_config(self) -> SimConfig:
        return SimConfig(
            blockade=mhz(self.simulation.blockade_mhz),
            omega_z=self.trap_omega_z() * 1e-6,  # rad/s -> rad/us
            eta=self.trap.eta_override,
            pulse=self.pulse.pulse_shape(),
            n_phonon_max=self.simulation.n_phonon_max,
            rtol=self.simulation.rtol,
            atol=self.simulation.atol,
            n_output=self.simulation.n_output,
        )

    def trap_omega_z(self) -> float:
        """Axial secular frequency in rad/s implied by the trap section."""
        return secular_frequencies(self.trap.trap_config()).omega_z


_SECTIONS = {
    "trap": TrapSection,
    "dressing": DressingSection,
    "interactions": InteractionsSection,
    "pulse": PulseSection,
    "simulation": SimulationSection,
    "output": OutputSection,
}

# key -> (predicate, requirement text); violations raise ValidationError
_RANGES = {
    "alpha": (lambda v: v > 0, "must be > 0"),
    "beta": (lambda v: v > 0, "must be > 0"),
    "omega_rf_mhz": (lambda v: v > 0, "must be > 0"),
    "mass_amu": (lambda v: v > 0, "must be > 0"),
    "omega_z_mhz_override": (lambda v: v is None or v > 0, "must be > 0 when set"),
    "eta_override": (lambda v: v >= 0, "must be >= 0"),
    "omega_mw_mhz": (lambda v: v > 0, "must be > 0"),
    "tau_us": (lambda v: v > 0, "must be > 0"),
    "omega0_mhz": (lambda v: v >= 0, "must be >= 0"),
    "blockade_mhz": (lambda v: v >= 0, "must be >= 0"),
    "n_phonon_max": (lambda v: v >= 1, "must be >= 1"),
    "rtol": (lambda v: RTOL_FLOOR <= v <= 1e-3, f"must lie in [{RTOL_FLOOR:.3g}, 1e-3]"),
    "atol": (lambda v: 0 < v <= 1e-3, "must lie in (0, 1e-3]"),
    "n_output": (lambda v: v >= 2, "must be >= 2"),
    "tau0_us": (lambda v: v > 0, "must be > 0"),
    "r_min_um": (lambda v: v > 0, "must be > 0"),
    "r_max_um": (lambda v: v > 0, "must be > 0"),
    "points": (lambda v: v >= 2, "must be >= 2"),
}


def _convert(section: str, field, raw: str):
    try:
        return field.type(raw)
    except ValueError as exc:
        raise ParseError(f"[{section}] {field.name}: cannot parse {raw!r}") from exc


def _check_range(section: str, key: str, value):
    if isinstance(value, float) and not math.isfinite(value):  # "inf" parses as a float
        raise ValidationError(f"[{section}] {key} must be finite, got {value}")
    rule = _RANGES.get(key)
    if rule is not None and not rule[0](value):
        raise ValidationError(f"[{section}] {key} {rule[1]}, got {value}")


def load_config(path=None, overrides=None) -> RunConfig:
    """Parse and validate a config file; None yields the all-defaults config.

    overrides maps "section.key" to a raw value string (the CLI's flags). It
    is written into the parsed file before anything is converted, so a
    flag obeys exactly the rules of the key it names.
    """
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
    for name, cls in _SECTIONS.items():
        known = {f.name: f for f in fields(cls)}
        given = parser[name] if parser.has_section(name) else {}
        for key in given:
            if key not in known:
                raise ValidationError(f"unknown key '{key}' in section [{name}]")
        section = cls(**{key: _convert(name, known[key], raw) for key, raw in given.items()})
        for key in known:
            _check_range(name, key, getattr(section, key))
        kwargs[name] = section
    cfg = RunConfig(**kwargs)
    if cfg.interactions.r_min_um >= cfg.interactions.r_max_um:
        raise ValidationError("[interactions] r_min_um must be < r_max_um")
    return cfg
