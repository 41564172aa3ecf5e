"""Aggregate benchmark artifacts into one reproduction report.

``benchmarks/`` writes each regenerated table/figure as a text file; this
module collects them into a single markdown document (the measured
counterpart of EXPERIMENTS.md) so a full run can be shared as one file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = ["build_report", "write_report"]

# Display order and titles keyed by filename prefix.
_SECTIONS = (
    ("table2_", "Table II — complexity scaling"),
    ("table3_", "Table III — datasets and target accuracy"),
    ("fig3_", "Fig. 3 — Fidelity− vs sparsity (factual)"),
    ("fig4_", "Fig. 4 — Fidelity+ vs sparsity (counterfactual)"),
    ("table4_", "Table IV — explanation AUC"),
    ("table5_", "Table V — running time"),
    ("fig5_", "Fig. 5 — α sensitivity"),
    ("fig6_", "Fig. 6 — qualitative subgraphs"),
    ("tablevi_", "Table VI — top flows (BA-Shapes)"),
    ("tablevii_", "Table VII — top flows (BA-2motifs)"),
    ("ablation_", "Ablations"),
)


@dataclass
class Artifact:
    """One regenerated table/figure file."""

    name: str
    section: str
    content: str


def _section_for(name: str) -> str | None:
    for prefix, title in _SECTIONS:
        if name.startswith(prefix):
            return title
    return None


def collect_artifacts(results_dir: str | Path) -> list[Artifact]:
    """Load every recognized artifact file under ``results_dir``."""
    results_dir = Path(results_dir)
    artifacts = []
    if not results_dir.exists():
        return artifacts
    for path in sorted(results_dir.glob("*.txt")):
        section = _section_for(path.stem)
        if section is None:
            continue
        artifacts.append(Artifact(name=path.stem, section=section,
                                  content=path.read_text().rstrip()))
    return artifacts


def build_report(results_dir: str | Path, *,
                 title: str = "Revelio reproduction report") -> str:
    """Render all artifacts as one markdown document."""
    artifacts = collect_artifacts(results_dir)
    lines = [f"# {title}", ""]
    if not artifacts:
        lines.append("*(no artifacts found — run `pytest benchmarks/ --benchmark-only`)*")
        return "\n".join(lines) + "\n"

    current = None
    for artifact in artifacts:
        if artifact.section != current:
            current = artifact.section
            lines.append(f"## {current}")
            lines.append("")
        lines.append(f"### `{artifact.name}`")
        lines.append("")
        lines.append("```")
        lines.append(artifact.content)
        lines.append("```")
        lines.append("")
    return "\n".join(lines) + "\n"


def write_report(results_dir: str | Path, output: str | Path) -> Path:
    """Build the report and write it to ``output``; returns the path."""
    output = Path(output)
    output.write_text(build_report(results_dir))
    return output
