//! Regenerate the full experimental report (the content of
//! EXPERIMENTS.md): every paper figure, the ablations, the extensions,
//! and the paper-vs-measured calibration table.
//!
//! ```sh
//! cargo run --release --bin vgrid-report            # fast fidelity
//! cargo run --release --bin vgrid-report -- --paper # paper fidelity
//! ```

use std::io::{self, Write};
use std::process::ExitCode;
use vgrid::core::{calibration, experiments, Fidelity, FigureResult};

fn write_figures(out: &mut dyn Write, figures: &[FigureResult]) -> io::Result<()> {
    for fig in figures {
        writeln!(out, "```text")?;
        write!(out, "{}", fig.render())?;
        writeln!(out, "```")?;
        writeln!(out)?;
    }
    Ok(())
}

fn write_report(out: &mut dyn Write, fidelity: Fidelity) -> io::Result<()> {
    writeln!(out, "# EXPERIMENTS — paper vs. reproduction")?;
    writeln!(out)?;
    writeln!(
        out,
        "Generated by `cargo run --release --bin vgrid-report{}` \
         (fidelity: {fidelity:?}).",
        if fidelity == Fidelity::Paper {
            " -- --paper"
        } else {
            ""
        }
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "The reproduction targets the *shape* of the paper's results — \
         orderings, rough factors, crossovers — on a simulated testbed \
         (see DESIGN.md). Absolute simulated values are reported where \
         the paper reports absolute values (Figure 4, Table)."
    )?;
    writeln!(out)?;

    let figures = experiments::run_paper_suite(fidelity);

    writeln!(out, "## Calibration summary")?;
    writeln!(out)?;
    let entries = calibration::collect(&figures);
    writeln!(out, "{}", calibration::render_markdown(&entries))?;
    writeln!(
        out,
        "Median relative deviation from the paper's reported values: **{:.1}%** \
         over {} comparable rows.",
        100.0 * calibration::median_relative_error(&entries),
        entries.len()
    )?;
    writeln!(out)?;

    writeln!(out, "## Paper figures")?;
    writeln!(out)?;
    write_figures(out, &figures)?;

    writeln!(out, "## Ablations (the paper's prose claims, tested)")?;
    writeln!(out)?;
    write_figures(out, &experiments::run_ablation_suite(fidelity))?;

    writeln!(out, "## Extensions (beyond the paper's evaluation)")?;
    writeln!(out)?;
    write_figures(out, &experiments::run_extension_suite(fidelity))
}

fn main() -> ExitCode {
    let fidelity = if std::env::args().any(|a| a == "--paper") {
        Fidelity::Paper
    } else {
        Fidelity::Fast
    };
    vgrid::out::to_stdout(|out| write_report(out, fidelity))
}
