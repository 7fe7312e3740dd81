//! ASCII datalog files: the interchange format between the tester and the
//! Dlog2BBN case generator (standing in for the paper's "ATE test files").
//!
//! The format is line-oriented and self-contained:
//!
//! ```text
//! #ABBD-DATALOG v1
//! DEVICE 42 truth=lcbg:dead
//! RECORD enabled|100|vout_reg|vout|4.750000|5.250000|4.998123|P
//! RECORD enabled|110|vref_nom|vref|1.100000|1.300000|1.199871|P
//! END
//! ```

use crate::error::{Error, Result};
use crate::tester::{DeviceLog, Record};
use std::fmt::Write as _;

const HEADER: &str = "#ABBD-DATALOG v1";

/// Serialises device logs into the ASCII datalog format.
pub fn write_datalog(logs: &[DeviceLog]) -> String {
    let mut out = String::with_capacity(logs.len() * 256 + 64);
    out.push_str(HEADER);
    out.push('\n');
    // Writing into a `String` cannot fail, so the `fmt::Result`s are moot.
    for log in logs {
        if log.truth.is_empty() {
            let _ = writeln!(out, "DEVICE {}", log.device_id);
        } else {
            let _ = writeln!(
                out,
                "DEVICE {} truth={}",
                log.device_id,
                log.truth.join(",")
            );
        }
        for r in &log.records {
            let verdict = if r.passed { 'P' } else { 'F' };
            let _ = writeln!(
                out,
                "RECORD {}|{}|{}|{}|{:.6}|{:.6}|{:.6}|{}",
                r.suite, r.test_number, r.test_name, r.net, r.lo, r.hi, r.value, verdict
            );
        }
        out.push_str("END\n");
    }
    out
}

/// Parses a datalog produced by [`write_datalog`] (or a compatible tool).
///
/// # Errors
///
/// Returns [`Error::Parse`] with a line number for any malformed content.
pub fn parse_datalog(text: &str) -> Result<Vec<DeviceLog>> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, line)) if line.trim() == HEADER => {}
        Some((i, line)) => {
            return Err(Error::Parse {
                line: i + 1,
                reason: format!("expected header `{HEADER}`, found `{line}`"),
            })
        }
        None => {
            return Err(Error::Parse {
                line: 1,
                reason: "empty datalog".into(),
            });
        }
    }

    let mut logs: Vec<DeviceLog> = Vec::new();
    let mut current: Option<DeviceLog> = None;
    for (i, raw) in lines {
        let line = raw.trim();
        let lineno = i + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("DEVICE ") {
            if current.is_some() {
                return Err(Error::Parse {
                    line: lineno,
                    reason: "DEVICE before END of previous device".into(),
                });
            }
            let mut parts = rest.split_whitespace();
            let id: u64 =
                parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| Error::Parse {
                        line: lineno,
                        reason: "missing or invalid device id".into(),
                    })?;
            let mut truth = Vec::new();
            for extra in parts {
                if let Some(t) = extra.strip_prefix("truth=") {
                    truth = t.split(',').map(str::to_string).collect();
                } else {
                    return Err(Error::Parse {
                        line: lineno,
                        reason: format!("unknown DEVICE attribute `{extra}`"),
                    });
                }
            }
            current = Some(DeviceLog {
                device_id: id,
                truth,
                records: Vec::new(),
            });
        } else if let Some(rest) = line.strip_prefix("RECORD ") {
            let log = current.as_mut().ok_or_else(|| Error::Parse {
                line: lineno,
                reason: "RECORD outside a DEVICE block".into(),
            })?;
            let fields: Vec<&str> = rest.split('|').collect();
            if fields.len() != 8 {
                return Err(Error::Parse {
                    line: lineno,
                    reason: format!("expected 8 fields, found {}", fields.len()),
                });
            }
            let parse_f = |s: &str, what: &str| -> Result<f64> {
                if s == "NaN" {
                    return Ok(f64::NAN);
                }
                s.parse().map_err(|_| Error::Parse {
                    line: lineno,
                    reason: format!("invalid {what} `{s}`"),
                })
            };
            let passed = match fields[7] {
                "P" => true,
                "F" => false,
                other => {
                    return Err(Error::Parse {
                        line: lineno,
                        reason: format!("invalid verdict `{other}`"),
                    })
                }
            };
            log.records.push(Record {
                suite: fields[0].to_string(),
                test_number: fields[1].parse().map_err(|_| Error::Parse {
                    line: lineno,
                    reason: format!("invalid test number `{}`", fields[1]),
                })?,
                test_name: fields[2].to_string(),
                net: fields[3].to_string(),
                lo: parse_f(fields[4], "lower limit")?,
                hi: parse_f(fields[5], "upper limit")?,
                value: parse_f(fields[6], "value")?,
                passed,
            });
        } else if line == "END" {
            let log = current.take().ok_or_else(|| Error::Parse {
                line: lineno,
                reason: "END without a DEVICE".into(),
            })?;
            logs.push(log);
        } else {
            return Err(Error::Parse {
                line: lineno,
                reason: format!("unrecognised line `{line}`"),
            });
        }
    }
    if current.is_some() {
        return Err(Error::Parse {
            line: text.lines().count(),
            reason: "datalog truncated: missing END".into(),
        });
    }
    Ok(logs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_logs() -> Vec<DeviceLog> {
        vec![
            DeviceLog {
                device_id: 1,
                truth: vec![],
                records: vec![Record {
                    suite: "s1".into(),
                    test_number: 100,
                    test_name: "t_a".into(),
                    net: "vout".into(),
                    lo: 4.75,
                    hi: 5.25,
                    value: 5.0,
                    passed: true,
                }],
            },
            DeviceLog {
                device_id: 2,
                truth: vec!["bandgap:dead".into()],
                records: vec![
                    Record {
                        suite: "s1".into(),
                        test_number: 100,
                        test_name: "t_a".into(),
                        net: "vout".into(),
                        lo: 4.75,
                        hi: 5.25,
                        value: 0.001,
                        passed: false,
                    },
                    Record {
                        suite: "s2".into(),
                        test_number: 200,
                        test_name: "t_b".into(),
                        net: "vref".into(),
                        lo: 1.1,
                        hi: 1.3,
                        value: f64::NAN,
                        passed: false,
                    },
                ],
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let logs = sample_logs();
        let text = write_datalog(&logs);
        assert_eq!(
            text,
            "#ABBD-DATALOG v1\n\
             DEVICE 1\n\
             RECORD s1|100|t_a|vout|4.750000|5.250000|5.000000|P\n\
             END\n\
             DEVICE 2 truth=bandgap:dead\n\
             RECORD s1|100|t_a|vout|4.750000|5.250000|0.001000|F\n\
             RECORD s2|200|t_b|vref|1.100000|1.300000|NaN|F\n\
             END\n"
        );
        let parsed = parse_datalog(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].device_id, 1);
        assert_eq!(parsed[1].truth, vec!["bandgap:dead".to_string()]);
        assert_eq!(parsed[1].records.len(), 2);
        assert_eq!(parsed[0].records[0].value, 5.0);
        assert!(parsed[1].records[1].value.is_nan());
        assert!(!parsed[1].records[0].passed);
    }

    #[test]
    fn rejects_missing_header() {
        assert!(matches!(
            parse_datalog(""),
            Err(Error::Parse { line: 1, .. })
        ));
        assert!(parse_datalog("garbage\n").is_err());
    }

    #[test]
    fn rejects_record_outside_device() {
        let text = format!("{HEADER}\nRECORD a|1|t|n|0|1|0.5|P\n");
        assert!(parse_datalog(&text).is_err());
    }

    #[test]
    fn rejects_nested_device() {
        let text = format!("{HEADER}\nDEVICE 1\nDEVICE 2\n");
        assert!(parse_datalog(&text).is_err());
    }

    #[test]
    fn rejects_truncated_log() {
        let text = format!("{HEADER}\nDEVICE 1\n");
        assert!(parse_datalog(&text).is_err());
    }

    #[test]
    fn rejects_malformed_record() {
        for bad in [
            "RECORD a|1|t|n|0|1|0.5",    // 7 fields
            "RECORD a|x|t|n|0|1|0.5|P",  // bad number
            "RECORD a|1|t|n|zz|1|0.5|P", // bad limit
            "RECORD a|1|t|n|0|1|0.5|Q",  // bad verdict
        ] {
            let text = format!("{HEADER}\nDEVICE 1\n{bad}\nEND\n");
            assert!(parse_datalog(&text).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = format!("{HEADER}\n\n# a comment\nDEVICE 1\nEND\n");
        let logs = parse_datalog(&text).unwrap();
        assert_eq!(logs.len(), 1);
        assert!(logs[0].records.is_empty());
    }

    #[test]
    fn rejects_unknown_device_attribute() {
        let text = format!("{HEADER}\nDEVICE 1 color=red\nEND\n");
        assert!(parse_datalog(&text).is_err());
    }
}
