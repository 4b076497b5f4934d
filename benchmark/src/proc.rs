//! Process accounting read from `/proc/self`: CPU time and peak memory.

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, fixed at 100 on every
/// mainstream architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are 14, 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM` line (peak resident set, kB) of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// CPU seconds (user + system, all threads) this process has used.
/// Zero where `/proc` is not available.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (stack) bench)) R 1 4242 4242 0 -1 4194304 \
                    1234 0 0 0 250 31 0 0 20 0 5 0 100 200 300";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(281));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kilobytes() {
        let status = "Name:\tstackbench\nVmPeak:\t  999 kB\nVmHWM:\t   52340 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(52340));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(peak_rss_mb() > 0.0);
            assert!(cpu_seconds() >= 0.0);
        }
    }
}
