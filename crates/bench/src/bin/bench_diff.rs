//! Compares two `BENCH_inference.json` files row by row.
//!
//! Prints the median ratio (new / old) of every row both files share, and
//! flags a row only when its medians differ by more than *both* files'
//! `p90_ns − p10_ns` spread: a move that stays inside either run's own
//! scatter is noise, not a change.
//!
//! Run: `cargo run --release -p abbd-bench --bin bench_diff -- old.json new.json`

use serde::Value;
use std::process::ExitCode;

/// One bench row's median and p10–p90 spread, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    median_ns: f64,
    spread_ns: f64,
}

/// `true` when the medians differ by more than both rows' spreads.
fn moved(old: Row, new: Row) -> bool {
    let delta = (new.median_ns - old.median_ns).abs();
    delta > old.spread_ns && delta > new.spread_ns
}

/// Reads a bench file as `("group/bench", row)` pairs, in file order.
fn load(path: &str) -> Result<Vec<(String, Row)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value = serde_json::parse_value_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let Value::Arr(rows) = value else {
        return Err(format!("{path}: expected a JSON array of bench rows"));
    };
    rows.iter()
        .map(|row| {
            let Value::Obj(fields) = row else {
                return Err(format!("{path}: a bench row is not an object"));
            };
            let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let name = |key: &str| match field(key) {
                Some(Value::Str(s)) => Ok(s.as_str()),
                _ => Err(format!("{path}: a bench row has no string `{key}`")),
            };
            let ns = |key: &str| match field(key) {
                Some(Value::Num(x)) => Ok(*x),
                _ => Err(format!("{path}: a bench row has no number `{key}`")),
            };
            let row = Row {
                median_ns: ns("median_ns")?,
                spread_ns: ns("p90_ns")? - ns("p10_ns")?,
            };
            Ok((format!("{}/{}", name("group")?, name("bench")?), row))
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [old_path, new_path] = args.as_slice() else {
        eprintln!("usage: bench_diff <old BENCH_inference.json> <new BENCH_inference.json>");
        return ExitCode::from(2);
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<56} {:>12} {:>12} {:>7}",
        "row", "old µs", "new µs", "ratio"
    );
    let mut flagged = 0;
    for (name, old_row) in &old {
        let Some((_, new_row)) = new.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let flag = if moved(*old_row, *new_row) {
            flagged += 1;
            "  moved"
        } else {
            ""
        };
        println!(
            "{name:<56} {:>12.3} {:>12.3} {:>7.3}{flag}",
            old_row.median_ns / 1e3,
            new_row.median_ns / 1e3,
            new_row.median_ns / old_row.median_ns
        );
    }
    println!("\n{flagged} row(s) moved by more than both files' p10–p90 spread");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(median_ns: f64, p10_ns: f64, p90_ns: f64) -> Row {
        Row {
            median_ns,
            spread_ns: p90_ns - p10_ns,
        }
    }

    #[test]
    fn a_row_moves_only_beyond_both_spreads() {
        let tight = row(100.0, 95.0, 105.0);
        // 20 ns apart: beyond both 10 ns spreads, either direction.
        assert!(moved(tight, row(120.0, 115.0, 125.0)));
        assert!(moved(row(120.0, 115.0, 125.0), tight));
        // Inside the old file's spread only.
        assert!(!moved(row(100.0, 70.0, 130.0), row(120.0, 115.0, 125.0)));
        // Inside the new file's spread only.
        assert!(!moved(tight, row(120.0, 90.0, 150.0)));
        // Exactly at a spread is not beyond it.
        assert!(!moved(tight, row(110.0, 105.0, 115.0)));
        assert!(!moved(tight, tight));
    }
}
