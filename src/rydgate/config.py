"""Config-file loading and validation.

One INI-style file with sections [trap], [dressing], [interactions],
[pulse], [simulation], [output]. Ordinary frequencies in MHz, times in us,
lengths in um. Unknown sections or keys are rejected; every default is a
documented physical operating point (see README). An empty or absent file
yields the all-defaults configuration.

A file is read in one pass over its lines, in the plain INI form of
configs/*.cfg: "[section]" headers, "key = value" lines, full-line "#" or
";" comments and blank lines. Any other line (indented or continuation
lines, ":" delimiters, inline comments, a key line before any header, a
repeated section or key) raises ParseError naming the file and the line;
[DEFAULT] is an unknown section like any other.
"""

import math

from ._record import Record
from .constants import ATOMIC_MASS, CA40_MASS, CA40_MASS_AMU, TWO_PI, mhz
from .dressing import D1_DEFAULT, MWDrive, POL_P_DEFAULT, POL_S_DEFAULT
from .dynamics import SIM_RANGES, SimConfig
from .errors import ParseError, ValidationError
from .gate import PulseShape
from .trap import TrapConfig, axial_gradient, from_secular, secular_frequencies

# Default trap operating point: Ca-40, axial 1 MHz, radial 4 MHz, rf 30 MHz.
_DEFAULT_TRAP = from_secular(
    omega_z=TWO_PI * 1e6,
    omega_rho=TWO_PI * 4e6,
    omega_rf=TWO_PI * 30e6,
    mass=CA40_MASS,
)


class TrapSection(Record):
    """[trap]: rf and static gradients, drive, ion mass and the Lamb-Dicke parameter."""

    alpha: float = _DEFAULT_TRAP.alpha          # V/m^2
    beta: float = _DEFAULT_TRAP.beta            # V/m^2
    omega_rf_mhz: float = 30.0
    mass_amu: float = CA40_MASS_AMU
    omega_z_mhz_override: float = None          # derives beta when set
    eta_override: float = 0.5                   # Lamb-Dicke parameter used downstream

    def trap_config(self) -> TrapConfig:
        mass = self.mass_amu * ATOMIC_MASS
        beta = self.beta
        if self.omega_z_mhz_override is not None:
            beta = axial_gradient(mhz(self.omega_z_mhz_override) * 1e6, mass)
        return TrapConfig(
            alpha=self.alpha,
            beta=beta,
            omega_rf=mhz(self.omega_rf_mhz) * 1e6,
            mass=mass,
        )


class DressingSection(Record):
    """[dressing]: microwave drive in MHz, polarizabilities and the transition dipole."""

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


class InteractionsSection(Record):
    """[interactions]: van der Waals C6 and the separation sweep in um."""

    c6_ghz_um6: float = 0.3
    r_min_um: float = 2.0
    r_max_um: float = 10.0
    points: int = 100

    @property
    def c6(self) -> float:
        return mhz(self.c6_ghz_um6 * 1e3)  # rad/us um^6


class PulseSection(Record):
    """[pulse]: peak Rabi frequency and detuning scale in MHz, duration in us."""

    omega0_mhz: float = 0.5
    delta0_mhz: float = 0.639
    tau_us: float = 60.0

    def pulse_shape(self) -> PulseShape:
        return PulseShape(
            omega0=mhz(self.omega0_mhz),
            delta0=mhz(self.delta0_mhz),
            tau=self.tau_us,
        )


class SimulationSection(Record):
    """[simulation]: blockade in MHz, the dynamics' cutoff, tolerances and output grid."""

    blockade_mhz: float = 2.5
    n_phonon_max: int = SimConfig.n_phonon_max
    rtol: float = SimConfig.rtol
    atol: float = SimConfig.atol
    n_output: int = SimConfig.n_output
    tau0_us: float = 132.0  # dressed-state lifetime for the loss estimate


class OutputSection(Record):
    """[output]: the output file path."""

    path: str = ""          # empty -> stdout


class RunConfig(Record):
    """One validated config file: a record per section."""

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


# section name -> (its record class, key -> type)
_SECTIONS = {name: (cls, cls.__annotations__) for name, cls in RunConfig.__annotations__.items()}

# largest [interactions] points: a 10 000-point sweep peaks near 40 MB and
# takes about 0.06 s with its 1 MB CSV, 100 000 about 120 MB and 0.7 s (one
# BLAS thread)
_POINTS_LIMIT = 10_000

# largest [pulse] tau_us and [simulation] blockade_mhz: at both, with rtol at
# its floor and n_phonon_max = 40, evolve takes about 48 000 DOP853 steps per
# trace, half the stepper's MAX_ATTEMPTS; gate's phase ladder stays far
# below its node cap
_TAU_LIMIT_US = 500.0
_BLOCKADE_LIMIT_MHZ = 50.0

# key -> (predicate, requirement text); violations raise ValidationError
_RANGES = {
    "alpha": (lambda v: v > 0, "must be > 0"),
    "beta": (lambda v: v > 0, "must be > 0"),
    "omega_rf_mhz": (lambda v: v > 0, "must be > 0"),
    "mass_amu": (lambda v: v > 0, "must be > 0"),
    "omega_z_mhz_override": (lambda v: v is None or v > 0, "must be > 0 when set"),
    "eta_override": (lambda v: v >= 0, "must be >= 0"),
    "omega_mw_mhz": (lambda v: v > 0, "must be > 0"),
    "tau_us": (lambda v: 0 < v <= _TAU_LIMIT_US, f"must lie in (0, {_TAU_LIMIT_US:g}]"),
    "omega0_mhz": (lambda v: v >= 0, "must be >= 0"),
    "delta0_mhz": (lambda v: v > 0, "must be > 0"),  # PulseShape's rule: E_- > 0 on the pulse
    "blockade_mhz": (lambda v: 0 <= v <= _BLOCKADE_LIMIT_MHZ,
                     f"must lie in [0, {_BLOCKADE_LIMIT_MHZ:g}]"),
    **SIM_RANGES,  # n_phonon_max, rtol, atol, n_output: SimConfig's own rules
    "tau0_us": (lambda v: v > 0, "must be > 0"),
    "r_min_um": (lambda v: v > 0, "must be > 0"),
    "r_max_um": (lambda v: v > 0, "must be > 0"),
    "points": (lambda v: 2 <= v <= _POINTS_LIMIT, f"must lie in [2, {_POINTS_LIMIT}]"),
}


def _convert(section: str, key: str, kind: type, raw: str):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ParseError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def _check_range(section: str, key: str, value):
    if isinstance(value, float) and not math.isfinite(value):  # "inf" parses as a float
        raise ValidationError(f"[{section}] {key} must be finite, got {value}")
    rule = _RANGES.get(key)
    if rule is not None and not rule[0](value):
        raise ValidationError(f"[{section}] {key} {rule[1]}, got {value}")


def _sections(text: str, path, overrides: list) -> dict:
    """{section: {key: value}} of a config text in the plain INI form, overrides merged in.

    Each line (split on "\n") is blank, a full-line "#" or ";" comment, an
    unindented "[name]" header with a new name, or an unindented
    "key = value" line under a header, its key new in the section and free of
    ":". No header or key line holds "#" or ";". Any other line raises
    ParseError naming the file and the line. Keys are lower-cased; [DEFAULT]
    is a section like any other. overrides holds load_config's checked
    (section, key, raw) triples.
    """
    sections, current = {}, None
    for number, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        key, eq, value = stripped.partition("=")
        key = key.rstrip().lower()
        if line[0].isspace():
            problem = "indented line (continuation lines are not read)"
        elif "#" in line or ";" in line:
            problem = "'#' or ';' in a header or key line (inline comments are not read)"
        elif stripped[0] == "[":
            name = stripped[1:-1]
            if stripped[-1] != "]" or not name:
                problem = "malformed section header"
            elif name in sections:
                problem = f"repeated section [{name}]"
            else:
                current = sections[name] = {}
                continue
        elif ":" in key:
            problem = "':' as a delimiter or in a key (write 'key = value')"
        elif not eq or not key:
            problem = "not a 'key = value' line"
        elif current is None:
            problem = "key line before any section header"
        elif key in current:
            problem = f"repeated key '{key}' in section [{name}]"
        else:
            current[key] = value.strip()
            continue
        raise ParseError(f"malformed config file {path}, line {number}: {problem}: {stripped!r}")
    for section, key, raw in overrides:
        sections.setdefault(section, {})[key.lower()] = str(raw)
    return sections


def _build(sections: dict) -> RunConfig:
    """The RunConfig of {section: {key: raw value}}, checked in a fixed order.

    Unknown sections, then section by section unknown keys, conversions and
    the range rules of the given keys; the defaults are constants that pass
    their rules (tests/test_config_reader.py), so they are not checked again.
    """
    for section in sections:
        if section not in _SECTIONS:
            raise ValidationError(f"unknown config section [{section}]")
    kwargs = {}
    for name, (cls, known) in _SECTIONS.items():
        given = sections.get(name)
        if not given:
            continue
        for key in given:
            if key not in known:
                raise ValidationError(f"unknown key '{key}' in section [{name}]")
        values = {key: _convert(name, key, known[key], raw) for key, raw in given.items()}
        for key in known:
            if key in values:
                _check_range(name, key, values[key])
        kwargs[name] = cls(**values)
    cfg = RunConfig(**kwargs)
    if cfg.interactions.r_min_um >= cfg.interactions.r_max_um:
        raise ValidationError("[interactions] r_min_um must be < r_max_um")
    return cfg


def load_config(path=None, overrides=None) -> RunConfig:
    """Parse and validate a config file; None yields the all-defaults config.

    The file must be in the plain INI form (module docstring); a line
    outside it raises ParseError "malformed config file PATH, line N: ...".
    overrides maps "section.key" to a raw value string (the CLI's flags). It
    is written into the parsed file before anything is converted, so a
    flag obeys exactly the rules of the key it names. A key without exactly
    one "." or a value None raises ParseError, before the file is opened.
    """
    triples = []
    for dotted, raw in (overrides or {}).items():
        parts = dotted.split(".")
        if len(parts) != 2 or raw is None:
            raise ParseError(f"override {dotted!r} = {raw!r}: want 'section.key' = value")
        triples.append((*parts, raw))
    text = ""
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read config file {path}: {exc}") from exc
    return _build(_sections(text, path, triples))
