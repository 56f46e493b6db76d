//! The golden gate on the paper's tables: every experiment runs in-process
//! and the text must equal the committed `experiments_output.txt` byte for
//! byte. A change that moves a paper number regenerates the file with
//! `cargo run --release -p flicker-bench --bin run_all > experiments_output.txt`
//! and names each changed row and its cause in CHANGES.md.

use flicker_bench::experiments::{self, ALL};

fn golden() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments_output.txt");
    std::fs::read_to_string(path).expect("experiments_output.txt is readable")
}

/// Where `actual` first departs from `golden`: the 1-based line number,
/// the experiment whose section holds it, and both versions of the line.
/// `None` when the texts are equal.
fn first_difference(golden: &str, actual: &str) -> Option<String> {
    if golden == actual {
        return None;
    }
    let (mut want, mut got) = (golden.split('\n'), actual.split('\n'));
    let mut experiment = "(no experiment yet)";
    for number in 1.. {
        let (w, g) = (want.next(), got.next());
        if w != g {
            let show =
                |line: Option<&str>| line.map_or("<end of text>".into(), |l| format!("{l:?}"));
            return Some(format!(
                "line {number} ({experiment}):\n  golden: {}\n  actual: {}",
                show(w),
                show(g)
            ));
        }
        if let Some(name) = w
            .and_then(|l| l.strip_prefix("################ "))
            .and_then(|l| l.strip_suffix(" ################"))
        {
            experiment = name;
        }
    }
    unreachable!("unequal texts differ on some line")
}

#[test]
fn experiments_match_the_golden_file() {
    let (text, failed) = experiments::run(ALL, &[]).expect("every name in ALL is valid");
    assert!(failed.is_empty(), "experiments failed: {failed:?}");
    if let Some(diff) = first_difference(&golden(), &text) {
        panic!(
            "experiments_output.txt differs at {diff}\n\
             If the change is intended, regenerate the file with \
             `cargo run --release -p flicker-bench --bin run_all > experiments_output.txt` \
             and name each changed row and its cause in CHANGES.md."
        );
    }
}

#[test]
fn a_one_digit_change_names_its_line_and_experiment() {
    let golden = golden();
    let (index, row) = golden
        .split('\n')
        .enumerate()
        .find(|(_, l)| l.trim_start().starts_with("Total Query Latency"))
        .expect("Table 1 has a total row");
    let last = row.chars().last().expect("the row is not empty");
    let flipped = if last == '0' { '1' } else { '0' };
    let changed = golden.replacen(row, &format!("{}{flipped}", &row[..row.len() - 1]), 1);
    let diff = first_difference(&golden, &changed).expect("the texts differ");
    assert!(
        diff.starts_with(&format!("line {} (table1):", index + 1)),
        "{diff}"
    );
    assert!(diff.contains(&format!("golden: {row:?}")), "{diff}");
}
