"""Shows that every workload's correctness gate rejects corrupted outputs.

Usage (from the root of a checkout):

    python3 perfbench/prove_gates.py [workload ...]

Runs each workload's operation once at seed 0 and checks that its gate
accepts the outputs.  Then it corrupts one output at a time (a file the
gate reads, or an exit code) and checks that the gate rejects it; the
outputs are restored after each corruption.  Exits 1 if a gate accepts a
corruption or rejects clean outputs.
"""

import copy
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from frontsteer import grid  # noqa: E402


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _edit_lines(path: Path, edit) -> None:
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")


def _replace_last_gap(lines):
    row = lines[-1].split(",")
    row[3] = repr(2e-3 * max(abs(float(row[1])), abs(float(row[2]))))
    return lines[:-1] + [",".join(row)]


def _flip_last_passed(lines):
    return lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",False"]


def _raise_first_error(lines):
    row = lines[1].split(",")
    row[1] = "0.06"
    return [lines[0], ",".join(row), *lines[2:]]


def _set(key, value):
    def corrupt(wl, result):
        result[key] = value
        return result
    return corrupt


def _on_file(name, edit, kind=_edit_lines):
    def corrupt(wl, result):
        kind(wl.out / name, edit)
        return result
    return corrupt


def _drop_check(name):
    def corrupt(wl, result):
        checks = result["certificates"]["checks"]
        result["certificates"]["checks"] = [c for c in checks if c["name"] != name]
        return result
    return corrupt


def _fail_check(name):
    def corrupt(wl, result):
        for check in result["certificates"]["checks"]:
            if check["name"] == name:
                check["passed"] = False
        return result
    return corrupt


def _m_field(delta):
    """Add ``delta`` to one node of the m.field that solve-transport wrote."""
    def corrupt(wl, result):
        m = grid.read_field(wl.out / "m.field")
        values = m.values.copy()
        values[10, 3, 3] += delta
        grid.write_field(wl.out / "m.field", grid.ScalarField(m.grid, values))
        return result
    return corrupt


CORRUPTIONS = {
    "optimize-gauss-1d": {
        "exit code 1": _set("rc", 1),
        "manifest says not converged": _on_file(
            "manifest.json", lambda d: d.update(converged=False), _edit_json),
        "final relative gap 2e-3": _on_file("diagnostics.csv", _replace_last_gap),
    },
    "reproduce-refine2": {
        "exit code 1": _set("rc", 1),
        "summary.csv truncated": _on_file("summary.csv", lambda lines: lines[:-1]),
        "last row not passed": _on_file("summary.csv", _flip_last_passed),
        "off-band error 0.06": _on_file("summary.csv", _raise_first_error),
    },
    "verify-2d": {
        "certify exit code 0": _set("rc_certify", 0),
        "holder_bound missing": _drop_check("holder_bound"),
        "subsolution failed": _fail_check("subsolution"),
        "solve-transport exit code 4": _set("rc_transport", 4),
        "m.field perturbed by 1e-6": _m_field(1e-6),
        "m.field negative": _m_field(-1e3),
    },
}


def rejects(wl, result) -> bool:
    try:
        return bool(wl.gate(result))
    except Exception:   # a gate that cannot read its outputs rejects them
        return True


def prove(name: str, work: Path) -> bool:
    wl = workloads.WORKLOADS[name](0, work / name)
    result = wl.run()
    ok = not rejects(wl, result)
    print(f"{name}: clean outputs {'accepted' if ok else 'REJECTED'}")
    saved = work / f"{name}-clean"
    shutil.copytree(wl.out, saved)
    for label, corrupt in CORRUPTIONS[name].items():
        rejected = rejects(wl, corrupt(wl, copy.deepcopy(result)))
        ok = ok and rejected
        print(f"{name}: {label}: {'rejected' if rejected else 'ACCEPTED'}")
        shutil.rmtree(wl.out)
        shutil.copytree(saved, wl.out)
    return ok


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    work = ROOT / ".perfbench" / "prove-gates"
    try:
        ok = all([prove(name, work) for name in names])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("all gates reject every corruption" if ok else "a gate failed its proof")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
