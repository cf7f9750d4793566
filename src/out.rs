//! Standard output for the command-line tools.

use std::io::{self, Write};
use std::process::ExitCode;

/// Run `write` against one locked stdout and turn the outcome into the
/// exit code. A reader that closes the pipe early (`vgrid suite |
/// head -1`) ends the output quietly with success, and `write` should
/// return at its first error so no further work is done for nobody;
/// any other write error is reported on stderr.
pub fn to_stdout(write: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> ExitCode {
    let mut out = io::stdout().lock();
    match write(&mut out).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}
