//! EXPERIMENTS.md quotes only what the publication-scale runs write
//! (ROADMAP item 9(c)): every number in its markdown tables, and the
//! figures Figure 3 quotes in bold, must appear in a CSV under `results/`
//! that its section names — on the section's **Measured** line, or in its
//! heading when it has none.
//!
//! A quoted number matches a CSV number when they differ by at most half
//! a unit in the quoted number's last place (`0.770` quotes `0.7704`,
//! `197 ms` quotes `196.6`); `57.45 %` quotes `0.5745`, `1/8` quotes
//! `0.1250`, and `15 028` is one number. A table cell is quoted data when
//! nothing but numbers, `%`, `ms`, emphasis and list punctuation is left
//! in it; a cell with words in it is a label and is not checked. The CSVs
//! are read whole, column names and label fields included.
//!
//! The match is not tied to a column: a cell passes when its number sits
//! anywhere in the named CSVs, so small integers such as 0, 1 and 2
//! always pass, as does a value that happens to sit in an unrelated
//! column. What it does catch is a quoted figure that no CSV holds, such
//! as a stale one.

use std::path::PathBuf;

/// A number as written: its value and how many decimal places it shows.
#[derive(Debug, Clone, Copy)]
struct Quoted {
    value: f64,
    places: i32,
}

impl Quoted {
    /// Whether `value` rounds to this number at its shown precision.
    fn quotes(self, value: f64) -> bool {
        (self.value - value).abs() <= 0.5 * 10f64.powi(-self.places) + 1e-9
    }
}

/// The numbers in `text`, and whether anything but numbers, `%`, `ms`,
/// emphasis and list punctuation is left of it.
fn numbers(text: &str) -> (Vec<Quoted>, bool) {
    let chars: Vec<char> = text.chars().collect();
    let digits_at = |i: usize| chars.get(i).is_some_and(|c| c.is_ascii_digit());
    let mut out = Vec::new();
    let mut residue = String::new();
    let mut i = 0;
    while i < chars.len() {
        if !digits_at(i) {
            residue.push(chars[i]);
            i += 1;
            continue;
        }
        let run = |i: &mut usize| {
            let start = *i;
            while digits_at(*i) {
                *i += 1;
            }
            chars[start..*i].iter().collect::<String>()
        };
        let mut whole = run(&mut i);
        // Thousands groups after one to three digits: "15 028", "1 300",
        // with a plain or a thin space.
        if whole.len() <= 3 {
            loop {
                let gap = chars
                    .get(i)
                    .is_some_and(|&c| matches!(c, ' ' | '\u{2009}' | '\u{202f}'));
                if !(gap && (1..=3).all(|k| digits_at(i + k)) && !digits_at(i + 4)) {
                    break;
                }
                whole.extend(&chars[i + 1..i + 4]);
                i += 4;
            }
        }
        let mut number = Quoted {
            value: whole.parse().expect("digits"),
            places: 0,
        };
        if chars.get(i) == Some(&'.') && digits_at(i + 1) {
            i += 1;
            let fraction = run(&mut i);
            number = Quoted {
                value: format!("{whole}.{fraction}").parse().expect("a decimal"),
                places: fraction.len() as i32,
            };
        } else if chars.get(i) == Some(&'/') && digits_at(i + 1) {
            i += 1;
            let divisor: f64 = run(&mut i).parse().expect("digits");
            number = Quoted {
                value: number.value / divisor,
                places: 9,
            };
        }
        let mut after = i;
        while chars.get(after) == Some(&' ') {
            after += 1;
        }
        if chars.get(after) == Some(&'%') {
            i = after + 1;
            number = Quoted {
                value: number.value / 100.0,
                places: number.places + 2,
            };
        }
        out.push(number);
    }
    let words = residue.replace("ms", "");
    let labelled = words.chars().any(char::is_alphanumeric);
    (out, labelled)
}

fn results() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// The backquoted `*.csv` names on `line`.
fn csv_names(line: &str) -> Vec<&str> {
    line.split('`')
        .skip(1)
        .step_by(2)
        .filter(|name| name.ends_with(".csv"))
        .collect()
}

/// Every number in the CSVs `names`, read from `results/`.
fn csv_numbers(names: &[&str]) -> Vec<f64> {
    let mut all = Vec::new();
    for name in names {
        let path = results().join(name);
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        all.extend(numbers(&text).0.into_iter().map(|n| n.value));
    }
    all
}

/// One `## ` section of the document: its heading and body lines.
struct Section<'a> {
    heading: &'a str,
    lines: Vec<&'a str>,
}

fn sections(doc: &str) -> Vec<Section<'_>> {
    let mut out: Vec<Section<'_>> = Vec::new();
    for line in doc.lines() {
        match line.strip_prefix("## ") {
            Some(heading) => out.push(Section {
                heading,
                lines: Vec::new(),
            }),
            None => {
                if let Some(section) = out.last_mut() {
                    section.lines.push(line);
                }
            }
        }
    }
    out
}

impl Section<'_> {
    /// The CSVs the section names: on its **Measured** line, else in its
    /// heading.
    fn csvs(&self) -> Vec<&str> {
        let measured = self.lines.iter().find(|l| l.starts_with("**Measured**"));
        let names = measured.map(|line| csv_names(line)).unwrap_or_default();
        if names.is_empty() {
            csv_names(self.heading)
        } else {
            names
        }
    }

    /// The quoted numbers of its tables' cells, each with its cell.
    fn table_numbers(&self) -> Vec<(Quoted, String)> {
        let mut out = Vec::new();
        for line in self.lines.iter().filter(|l| l.starts_with('|')) {
            let separator = line.chars().all(|c| matches!(c, '|' | '-' | ':' | ' '));
            if separator {
                continue;
            }
            for cell in line.trim_matches('|').split('|') {
                let (quoted, labelled) = numbers(cell);
                if !labelled {
                    out.extend(quoted.into_iter().map(|q| (q, cell.trim().to_string())));
                }
            }
        }
        out
    }

    /// The quoted numbers of its `**bold**` spans.
    fn bold_numbers(&self) -> Vec<(Quoted, String)> {
        let text = self.lines.join("\n");
        let mut out = Vec::new();
        for span in text.split("**").skip(1).step_by(2) {
            let (quoted, labelled) = numbers(span);
            if !labelled {
                out.extend(quoted.into_iter().map(|q| (q, span.to_string())));
            }
        }
        out
    }
}

/// Every quoted number of `quoted` that no number in `csv` rounds to.
fn unquoted(quoted: &[(Quoted, String)], csv: &[f64]) -> Vec<String> {
    (quoted.iter())
        .filter(|(q, _)| !csv.iter().any(|&c| q.quotes(c)))
        .map(|(q, cell)| format!("{} in `{cell}`", q.value))
        .collect()
}

#[test]
fn every_table_number_is_in_the_csv_its_section_names() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let mut tables = 0;
    for section in sections(doc) {
        let quoted = section.table_numbers();
        if quoted.is_empty() {
            continue;
        }
        tables += 1;
        let names = section.csvs();
        assert!(
            !names.is_empty(),
            "`{}` has a table but names no CSV",
            section.heading
        );
        let missing = unquoted(&quoted, &csv_numbers(&names));
        assert!(
            missing.is_empty(),
            "`{}`: not in {names:?}: {missing:?}",
            section.heading
        );
    }
    // Figures 4, 6 and 7, Table 1, the ablations, jitter, the multi-server
    // tier and the scenarios.
    assert!(tables >= 8, "{tables} sections with tables");
}

#[test]
fn figure3_quotes_its_validation_csv() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let section = sections(doc)
        .into_iter()
        .find(|s| s.heading.starts_with("Figure 3"))
        .expect("a Figure 3 section");
    let names = section.csvs();
    assert!(names.contains(&"fig3_theorem2_validation.csv"), "{names:?}");
    let quoted = section.bold_numbers();
    // The graph region's and the chain region's acceptance.
    assert!(quoted.len() >= 2, "{quoted:?}");
    let missing = unquoted(&quoted, &csv_numbers(&names));
    assert!(
        missing.is_empty(),
        "Figure 3: not in {names:?}: {missing:?}"
    );
}

#[test]
fn numbers_are_read_as_written() {
    let read = |text: &str| {
        let (quoted, labelled) = numbers(text);
        let values: Vec<(f64, i32)> = quoted.iter().map(|q| (q.value, q.places)).collect();
        (values, labelled)
    };
    assert_eq!(read(" **0.8839** "), (vec![(0.8839, 4)], false));
    assert_eq!(read("15 028"), (vec![(15_028.0, 0)], false));
    assert_eq!(read("1\u{202f}300"), (vec![(1_300.0, 0)], false));
    assert_eq!(read("57.45 %"), (vec![(0.5745, 4)], false));
    assert_eq!(read("1/8"), (vec![(0.125, 9)], false));
    assert_eq!(read("197 ms"), (vec![(197.0, 0)], false));
    assert_eq!(read("1.0000, 0"), (vec![(1.0, 4), (0.0, 0)], false));
    assert_eq!(read("0*"), (vec![(0.0, 0)], false));
    assert!(read("load 1.0").1 && read("α=1/3 (Eq. 12)").1);
    assert!(Quoted {
        value: 0.770,
        places: 3
    }
    .quotes(0.7704));
    assert!(Quoted {
        value: 197.0,
        places: 0
    }
    .quotes(196.6));
    assert!(!Quoted {
        value: 0.577,
        places: 3
    }
    .quotes(0.5745));
}
