//! Host-speed calibration: launches of a fixed reference process, timed
//! all through a run, that say how fast the host starts and runs
//! processes right now.
//!
//! The benchmark runs on a few cores of a shared host whose speed
//! shifts between regimes that last minutes, as other tenants come and
//! go; every workload's wall time and every setup launch move with them
//! at once. The reference process is this binary run with
//! [`CALIBRATE_ARG`], which exits at once: its launch is the same
//! spawn, exec, dynamic loading and exit that every `smc` launch pays,
//! with no code under test. End-to-end times are reported at the
//! reference speed: measured time x [`REFERENCE_S`] / the median
//! reference launch of the same run.

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::stats::median;

/// Argument that makes the benchmark binary exit at once, as the
/// reference process.
pub const CALIBRATE_ARG: &str = "--calibrate";

/// Median reference launch on the machine the benchmark was defined on
/// (2 cores of an Intel Xeon, `nproc` = 2): the host speed times are
/// scaled to.
pub const REFERENCE_S: f64 = 0.0015;

/// Launch the reference process once; spawn to exit, seconds.
pub fn launch() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let t0 = Instant::now();
    let status = Command::new(exe)
        .arg(CALIBRATE_ARG)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot launch the reference process: {e}"))?;
    if !status.success() {
        return Err(format!("reference process failed ({status})"));
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// The factor that scales a time measured in a run to the reference
/// speed: [`REFERENCE_S`] over the median of the run's launches.
pub fn to_reference(launches: &[f64]) -> f64 {
    REFERENCE_S / median(launches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_median_launch() {
        let f = to_reference(&[0.002, 0.004, 0.001]);
        assert!((f - REFERENCE_S / 0.002).abs() < 1e-12);
    }
}
