"""Independent correctness checks.

Reference values are built here from the gate semantics (bit flips on the
M = 4 m_Q + 2 m_R + m_S encoding, the UT two-level block) and from the
documented CLI contract; none comes from the package under test.  Each
check returns None when the output is right and a short reason otherwise.
"""

import math

import numpy as np
import yaml

BIT = {"Q": 4, "R": 2, "S": 1}
NOT_KINDS = ("NOT", "CNOT", "CCNOT")
VERDICT_NOT = "equal-up-to-i"
VERDICT_UT = "exact"
TOL = 1e-9


def parse_gate(text: str) -> dict:
    """Kind, controls, target and payload of one canonical gate string."""
    head, _, payload = text.strip().partition("(")
    kind, _, rest = head.partition(":")
    controls, _, target = rest.rpartition("->")
    gate = {"kind": kind, "controls": controls, "target": target}
    if payload:
        phi, f = payload.rstrip(")").split(",")
        gate.update(phi=float(phi), f=float(f))
    return gate


def level_pairs(gate: dict) -> list:
    """(M with target bit 0, M with target bit 1) for every control-satisfying M."""
    mask = sum(BIT[c] for c in gate["controls"])
    bit = BIT[gate["target"]]
    return [(m, m | bit) for m in range(8) if not m & bit and m & mask == mask]


def textbook(gate: dict) -> np.ndarray:
    """Textbook 8x8 matrix: bit flip, or the UT block on each addressed pair."""
    u = np.eye(8, dtype=complex)
    for lo, hi in level_pairs(gate):
        if gate["kind"] in NOT_KINDS:
            block = np.array([[0, 1], [1, 0]])
        else:
            c, s = math.cos(gate["phi"] / 2), math.sin(gate["phi"] / 2)
            block = np.array([[c, 1j * np.exp(1j * gate["f"]) * s],
                              [1j * np.exp(-1j * gate["f"]) * s, c]])
        u[np.ix_([lo, hi], [lo, hi])] = block
    return u


def physical(gate: dict) -> np.ndarray:
    """Idealized pulse realization: a NOT-family flip carries i off the diagonal."""
    u = textbook(gate)
    if gate["kind"] in NOT_KINDS:
        off = ~np.eye(8, dtype=bool) & (np.abs(u) > 0)
        u[off] *= 1j
    return u


def sequence(gates: str, build) -> np.ndarray:
    u = np.eye(8, dtype=complex)
    for text in gates.split(";"):
        u = build(parse_gate(text)) @ u
    return u


def expected_verdict(gates: str) -> str:
    """Verdict of the ideal pulse product against the textbook product."""
    target, actual = sequence(gates, textbook), sequence(gates, physical)
    if np.abs(actual - target).max() < TOL:
        return "exact"
    target_i = target.copy()
    off = ~np.eye(8, dtype=bool) & (np.abs(target) > TOL)
    target_i[off] *= 1j
    if np.abs(actual - target_i).max() < TOL:
        return "equal-up-to-i"
    inner = np.trace(target.conj().T @ actual)
    if np.abs(actual - np.exp(1j * np.angle(inner)) * target).max() < TOL:
        return "equal-up-to-global-phase"
    return "mismatch"


def bit_flip_table(gates: str) -> dict:
    """Input label -> output label under the classical bit-flip semantics."""
    table = {}
    for label in range(8):
        m = label
        for text in gates.split(";"):
            gate = parse_gate(text)
            mask = sum(BIT[c] for c in gate["controls"])
            if m & mask == mask:
                m ^= BIT[gate["target"]]
        table[label] = m
    return table


def single_gate_verdict(gate: str) -> str:
    return VERDICT_NOT if parse_gate(gate)["kind"] in NOT_KINDS else VERDICT_UT


# ---------------------------------------------------------------------------
# gate-service
# ---------------------------------------------------------------------------

def check_compile(gates: str, rows, propagator, verdict, table) -> str | None:
    if len(rows) != 28 or sum(r.allowed for r in rows) != 7:
        return "transition table is not 28 rows with 7 allowed"
    if np.abs(propagator - sequence(gates, physical)).max() > TOL:
        return "propagator differs from the ideal pulse product"
    if verdict != expected_verdict(gates):
        return f"verdict {verdict} != {expected_verdict(gates)}"
    if table is not None:
        expected = bit_flip_table(gates)
        for label, (out, amp) in table.items():
            if out != expected[label] or abs(abs(amp) - 1) > TOL:
                return f"truth table maps {label} to {out}, expected {expected[label]}"
    return None


def check_replay(gates: str, parsed, original, verdict) -> str | None:
    if parsed != original:
        return "parse_schedule(format_schedule(s)) != s"
    if verdict != expected_verdict(gates):
        return f"verdict {verdict} != {expected_verdict(gates)}"
    return None


# ---------------------------------------------------------------------------
# exact-dynamics
# ---------------------------------------------------------------------------

MIN_TRANSFER = 0.99
MAX_UNITARITY_DRIFT = 1e-8


def check_dynamics(gates: str, transfer: dict, actual: np.ndarray) -> tuple:
    """(failure reason or None, lowest transfer probability) for one job.

    The probabilities are P(l) = |ref[:, l]^dagger actual[:, l]|^2 against the
    ideal pulse product built here, not against the program's own ideal;
    the program's ideal output labels must follow the bit-flip semantics
    (NOT family) or leave every label in place (UT family).
    """
    ref = sequence(gates, physical)
    probabilities = np.abs(np.einsum("ij,ij->j", ref.conj(), actual)) ** 2
    low = float(probabilities.min())
    kinds = {parse_gate(text)["kind"] for text in gates.split(";")}
    expected = bit_flip_table(gates) if kinds <= set(NOT_KINDS) else {l: l for l in range(8)}
    labels = {label: out for label, (out, _) in transfer.items()}
    if labels != expected:
        return f"ideal output labels {labels} != {expected}", low
    if low <= MIN_TRANSFER:
        return f"transfer probability {low:.5f} <= {MIN_TRANSFER}", low
    drift = float(np.abs(actual.conj().T @ actual - np.eye(8)).max())
    if drift > MAX_UNITARITY_DRIFT:
        return f"unitarity drift {drift:.2e} > {MAX_UNITARITY_DRIFT}", low
    return None, low


# ---------------------------------------------------------------------------
# cli-cold: README exit codes and output shapes
# ---------------------------------------------------------------------------

# Omega(6,7) at theta = 0 is omega0 - 12 omegaQ; 0.88 at the default 0.01.
OMEGA67_THETA0 = 0.88
# |6> -> |7> under the strong-drive CCNOT:QR->S schedule.  Spectator levels
# are not checked: at gammaHrf/omega0 = 0.01 the idealized model is known to
# leak (the CLI warns from 0.05), so only the addressed pi pulse is graded.
STRONG_MIN_TRANSFER = 0.9


def _verdict(out: str, fmt: str) -> str | None:
    for line in out.splitlines():
        if fmt == "table" and line.startswith("verdict:"):
            return line.split()[1]
        if fmt == "st" and line.startswith("verdict:"):
            return line.split('"')[1]
    if fmt == "csv" and len(out.splitlines()) == 2:
        # gate strings with a payload contain commas, so count from the right
        return out.splitlines()[1].rsplit(",", 2)[1]
    return None


def _spectrum_rows(out: str, fmt: str) -> list:
    """(upper, lower, omega, flag) rows of a spectrum listing."""
    lines = out.splitlines()
    if fmt == "csv":
        return [(int(a), int(b), float(w), flag)
                for a, b, w, _, flag in (l.split(",") for l in lines[1:])]
    if fmt == "st":
        rows, block = [], {}
        for line in lines[2:]:
            key, _, value = line.lstrip("- ").partition(": ")
            block[key] = value.strip('"')
            if key == "flag":
                rows.append((int(block["upper"]), int(block["lower"]),
                             float(block["omega_over_omega0"]), block["flag"]))
        return rows
    rows = []
    for line in lines[2:]:
        pair, omega, _, *flag = line.split()
        upper, lower = pair.strip("()").split(",")
        rows.append((int(upper), int(lower), float(omega), " ".join(flag)))
    return rows


def _transfers(out: str, fmt: str) -> dict:
    """input label -> (ideal output, probability) from a simulate listing."""
    result = {}
    lines = out.splitlines()
    if fmt == "csv":
        for line in lines:
            if line and line[0].isdigit():
                a, b, p = line.split(",")
                result[int(a)] = (int(b), float(p))
    elif fmt == "st":
        label = out_label = None
        for line in lines:
            key, _, value = line.lstrip("- ").partition(": ")
            if key == "input":
                label = int(value)
            elif key == "ideal_output":
                out_label = int(value)
            elif key == "probability":
                result[label] = (out_label, float(value))
    else:
        for line in lines:
            if line.startswith("  |"):
                parts = line.split()
                result[int(parts[0].strip("|>"))] = (int(parts[2].strip("|>")),
                                                     float(parts[-1]))
    return result


def check_cli(op: dict, code: int, out: str, err: str, files) -> tuple:
    """(failure reason or None, fingerprint dict) for one cold CLI call.

    `files` maps a file name in the call's working directory to its text.
    """
    fingerprint = {}
    if code != op["code"]:
        return f"exit {code}, expected {op['code']}", fingerprint
    if code != 0:
        if "Traceback" in err:
            return "traceback on an input error", fingerprint
        if op["kind"] == "corrupt" and _verdict(out, op["format"]) != "mismatch":
            return "corrupted schedule not reported as mismatch", fingerprint
        return None, fingerprint
    kind, fmt = op["kind"], op["format"]
    try:
        if kind == "spectrum":
            rows = _spectrum_rows(out, fmt)
            if len(rows) != 28 or sum(r[3] == "allowed" for r in rows) != 7:
                return "spectrum is not 28 rows with 7 allowed", fingerprint
            if op.get("theta0"):
                omega = next(r[2] for r in rows if r[:2] == (6, 7))
                fingerprint["omega67_error"] = abs(omega - OMEGA67_THETA0)
                if fingerprint["omega67_error"] > 1e-12:
                    return f"Omega(6,7) = {omega!r} at theta = 0", fingerprint
        elif kind == "compile":
            doc = yaml.safe_load(files.get(op["out"], ""))
            pairs = [(t["upper"], t["lower"]) for t in doc["groups"][0]]
            if doc["gate"] != op["gate"] or pairs != level_pairs(parse_gate(op["gate"])):
                return "compiled schedule has the wrong gate or level pairs", fingerprint
        elif kind.startswith("verify"):
            verdict = _verdict(out, fmt)
            if verdict != single_gate_verdict(op["gate"]):
                return f"verdict {verdict} for {op['gate']}", fingerprint
            if fmt != "table":
                fingerprint["verify_max_deviation"] = float(
                    out.splitlines()[-1].split(",")[-1].split(":")[-1])
        elif kind == "sweep":
            data = [l for l in out.splitlines() if l and not l.startswith(("#", "omegaQ"))]
            slope = float(out.rsplit("slope=", 1)[1])
            expected = 1.0 if op["dm"] == 2 else 0.0
            tolerance = 0.15 if op["dm"] == 2 else 0.05
            if len(data) != op["points"] or abs(slope - expected) > tolerance:
                return f"sweep slope {slope:.3f} over {len(data)} points", fingerprint
        elif kind == "simulate":
            transfer = _transfers(out, fmt)
            ideal = {label: target for label, (target, _) in transfer.items()}
            if ideal != bit_flip_table("CCNOT:QR->S") or \
                    not all(0 <= p <= 1 + TOL for _, p in transfer.values()):
                return "simulate transfer table malformed", fingerprint
            fingerprint["strong_transfer_67"] = transfer[6][1]
            if transfer[6][1] <= STRONG_MIN_TRANSFER:
                return f"strong-drive transfer {transfer[6][1]:.4f}", fingerprint
    except (ValueError, IndexError, KeyError, TypeError, StopIteration, AttributeError) as exc:
        return f"unparseable {kind} output: {exc!r}", fingerprint
    return None, fingerprint
