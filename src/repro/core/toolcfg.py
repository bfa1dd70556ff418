"""Step 5 (paper Fig. 5): FV tool setup.

AutoSVA is a *frontend*: after generating the property and bind files it
emits the tool-specific configuration that drives the proof run.  The paper
supports JasperGold and SymbiYosys; this reproduction generates both file
formats (golden-tested for shape) plus a config for the built-in
:mod:`repro.formal` engine, which is the one actually executed offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .sva import PropFile

__all__ = ["ToolConfig", "render_sby", "render_jg_tcl"]


@dataclass
class ToolConfig:
    """Bounds forwarded to whichever engine runs the FT."""

    depth: int = 20
    timeout_s: int = 3600
    engine_mode: str = "prove"   # prove | bmc | live


def render_sby(prop: PropFile, rtl_files: List[str],
               config: ToolConfig = ToolConfig()) -> str:
    """SymbiYosys project file: separate prove/live tasks, as required for
    liveness checking with yosys-based flows."""
    files = list(rtl_files) + [f"{prop.dut_name}_prop.sv",
                               f"{prop.dut_name}_bind.sv"]
    read_lines = "\n".join(f"read -formal {name}" for name in files)
    file_lines = "\n".join(files)
    return f"""\
# SymbiYosys configuration generated by AutoSVA (reproduction)
[tasks]
prove
live
bmc

[options]
prove: mode prove
live: mode live
bmc: mode bmc
depth {config.depth}
timeout {config.timeout_s}

[engines]
prove: smtbmc yices
live: aiger suprove
bmc: smtbmc boolector

[script]
{read_lines}
prep -top {prop.dut_name}

[files]
{file_lines}
"""


def render_jg_tcl(prop: PropFile, rtl_files: List[str],
                  config: ToolConfig = ToolConfig()) -> str:
    """JasperGold App TCL script (analyze/elaborate/clock/reset/prove)."""
    files = list(rtl_files) + [f"{prop.dut_name}_prop.sv",
                               f"{prop.dut_name}_bind.sv"]
    analyze = " \\\n    ".join(files)
    reset_expr = prop.reset_guard
    return f"""\
# JasperGold script generated by AutoSVA (reproduction)
clear -all
analyze -sv12 \\
    {analyze}
elaborate -top {prop.dut_name}
clock {prop.clock}
reset {reset_expr}
# Focus on control logic: let the tool abstract datapaths.
set_prove_time_limit {config.timeout_s}s
prove -all
report
"""
