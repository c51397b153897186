"""Driving everything from the command line.

Every verb prints a deterministic report and exits zero exactly when all
of its checks pass, so the CLI doubles as a scriptable verification tool.
This demo calls the same entry point the `cycrep` executable uses.
"""

from cycrep.cli import run

INVOCATIONS = [
    ["validate", "--support", "divisors:12", "--source", "regular"],
    ["hom", "--support", "divisors:12", "--source", "tauRU", "--target", "regular"],
    ["ext", "--support", "1,2,3", "--source", "atomic:1:1", "--max-degree", "2"],
    ["tau-ru", "--support", "divisors:24"],
    ["normal-basis", "--support", "divisors:12", "--show-unscaled-failure"],
    ["resolution", "--support", "divisors:30", "--primes", "2,3,5",
     "--max-degree", "3"],
    ["report", "--support", "divisors:12", "--seed", "7"],
]

for argv in INVOCATIONS:
    print("$ cycrep " + " ".join(argv))
    code, text = run(argv)
    indented = "\n".join("  " + line for line in text.splitlines())
    print(indented)
    print(f"  exit code: {code}")
    print()
