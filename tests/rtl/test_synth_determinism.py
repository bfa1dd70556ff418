"""RTL elaboration must not depend on PYTHONHASHSEED.

Synthesis used to create muxes in set-iteration order, so the same RTL
compiled to differently numbered AIGs under different hash seeds, and
every SAT counter downstream followed the seed.  Compile the whole corpus
in two interpreters with different seeds and compare the structure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
import hashlib, json
from repro.api.compile import CompileCache, compile_design
from repro.core import generate_ft
from repro.designs import CORPUS

out = {}
for case in CORPUS:
    for variant in ("fixed", "buggy"):
        if variant == "buggy" and not case.buggy_file:
            continue
        source = case.dut_source() if variant == "fixed" \
            else case.buggy_source()
        ft = generate_ft(source, module_name=case.dut_module)
        sources = [source] + case.extra_sources() + ft.testbench_sources()
        ts = compile_design(["\n".join(sources)], case.dut_module,
                            cache=CompileCache()).base
        structure = (
            sorted(ts.aig._and_of.items()), ts.inputs,
            [(l.name, l.node, l.next_lit, l.init) for l in ts.latches],
            [(p.name, p.lit, p.kind)
             for p in ts.constraints + ts.asserts + ts.covers])
        out[f"{case.case_id}.{variant}"] = hashlib.sha256(
            repr(structure).encode()).hexdigest()
print(json.dumps(out))
"""


def _compile_corpus(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")]
                                 if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=600,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_corpus_aigs_identical_across_hash_seeds():
    first, second = _compile_corpus("0"), _compile_corpus("1")
    assert len(first) == 13
    assert first == second
