//! The independent result oracle: each query's expected answer computed
//! in plain Rust from the generator's `Item` trees
//! (`SensorSpec::file_item`), with no JSON parsing and no engine.
//! Answers compare as multisets of canonical row texts, or, for Q2's
//! average, as one number within a relative tolerance.

use crate::dataset::Fnv;
use datagen::SensorSpec;
use jdm::Item;
use std::collections::HashMap;

/// Relative tolerance of numeric answers: the engine sums in another
/// order than the oracle.
const TOLERANCE: f64 = 1e-9;

/// What a benchmark query computes, with its constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryKind {
    /// Q0 and its variants: the readings dated `month`/`day` of a year
    /// `>= year_ge`. Q0b (`dates_only`) returns just their date strings.
    Select {
        year_ge: i32,
        month: u32,
        day: u32,
        dates_only: bool,
    },
    /// Q1, Q1b and their variants: per date, the number of `data_type`
    /// readings (with a value `>= value_ge` when set).
    GroupCount {
        data_type: &'static str,
        value_ge: Option<i64>,
    },
    /// Q2: the average TMAX − TMIN over readings paired on station and
    /// date, divided by 10.
    JoinAvg,
}

/// A query's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A multiset of rows: how many, and a digest of their sorted
    /// canonical texts.
    Rows { count: u64, digest: u64 },
    /// One numeric row.
    Number(f64),
}

impl Answer {
    fn rows(mut texts: Vec<String>) -> Answer {
        texts.sort_unstable();
        let mut hash = Fnv::default();
        for t in &texts {
            hash.write(t.as_bytes());
            hash.write(&[0]);
        }
        Answer::Rows {
            count: texts.len() as u64,
            digest: hash.finish(),
        }
    }

    /// The answer the engine's result rows give.
    pub fn observed(kind: &QueryKind, rows: &[Vec<Item>]) -> Answer {
        if *kind == QueryKind::JoinAvg {
            if let [row] = rows {
                if let [Item::Number(n)] = row.as_slice() {
                    return Answer::Number(n.as_f64());
                }
            }
        }
        Answer::rows(
            rows.iter()
                .map(|row| {
                    let fields: Vec<String> = row.iter().map(jdm::text::to_string).collect();
                    fields.join("\u{1}")
                })
                .collect(),
        )
    }

    pub fn matches(&self, expected: &Answer) -> bool {
        match (self, expected) {
            (Answer::Number(got), Answer::Number(want)) => {
                (got - want).abs() <= TOLERANCE * want.abs().max(1.0)
            }
            _ => self == expected,
        }
    }

    /// One-line text form, for the expected-answer file.
    pub fn encode(&self) -> String {
        match self {
            Answer::Rows { count, digest } => format!("rows {count} {digest:016x}"),
            Answer::Number(v) => format!("number {:016x}", v.to_bits()),
        }
    }

    pub fn decode(line: &str) -> Option<Answer> {
        let fields: Vec<&str> = line.split(' ').collect();
        match fields.as_slice() {
            ["rows", count, digest] => Some(Answer::Rows {
                count: count.parse().ok()?,
                digest: u64::from_str_radix(digest, 16).ok()?,
            }),
            ["number", bits] => Some(Answer::Number(f64::from_bits(
                u64::from_str_radix(bits, 16).ok()?,
            ))),
            _ => None,
        }
    }
}

/// One measurement object of the dataset.
struct Reading {
    date: String,
    year: i32,
    month: u32,
    day: u32,
    data_type: String,
    station: String,
    value: i64,
    /// The object's canonical text: what a Q0 row must print as.
    text: String,
}

impl Reading {
    fn from_item(m: &Item) -> Reading {
        let field = |key: &str| {
            m.get_key(key)
                .unwrap_or_else(|| panic!("generated reading lacks {key:?}"))
        };
        let string = |key: &str| {
            field(key)
                .as_str()
                .unwrap_or_else(|| panic!("generated {key:?} is not a string"))
                .to_string()
        };
        let date = string("date");
        // The generator writes dates as "YYYYMMDDThh:mm".
        let part = |range: std::ops::Range<usize>| -> u32 {
            date.get(range)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("generated date {date:?} is not YYYYMMDD"))
        };
        Reading {
            year: part(0..4) as i32,
            month: part(4..6),
            day: part(6..8),
            data_type: string("dataType"),
            station: string("station"),
            value: field("value")
                .as_number()
                .and_then(|n| n.as_i64())
                .expect("generated values are integers"),
            text: jdm::text::to_string(m),
            date,
        }
    }
}

/// Every reading of a dataset, read off the generator's items.
pub struct Oracle {
    readings: Vec<Reading>,
}

impl Oracle {
    pub fn new(spec: &SensorSpec) -> Oracle {
        let mut readings = Vec::with_capacity(spec.total_measurements());
        for file in 0..spec.nodes * spec.files_per_node {
            let doc = spec.file_item(file);
            for record in members(doc.get_key("root")) {
                for m in members(record.get_key("results")) {
                    readings.push(Reading::from_item(m));
                }
            }
        }
        Oracle { readings }
    }

    pub fn answer(&self, kind: &QueryKind) -> Answer {
        match kind {
            QueryKind::Select {
                year_ge,
                month,
                day,
                dates_only,
            } => Answer::rows(
                self.readings
                    .iter()
                    .filter(|r| r.year >= *year_ge && r.month == *month && r.day == *day)
                    .map(|r| {
                        if *dates_only {
                            jdm::text::to_string(&Item::str(r.date.as_str()))
                        } else {
                            r.text.clone()
                        }
                    })
                    .collect(),
            ),
            QueryKind::GroupCount {
                data_type,
                value_ge,
            } => {
                let mut per_date: HashMap<&str, i64> = HashMap::new();
                for r in &self.readings {
                    if r.data_type == *data_type && !matches!(value_ge, Some(v) if r.value < *v) {
                        *per_date.entry(r.date.as_str()).or_default() += 1;
                    }
                }
                Answer::rows(
                    per_date
                        .values()
                        .map(|&n| jdm::text::to_string(&Item::int(n)))
                        .collect(),
                )
            }
            QueryKind::JoinAvg => {
                // Per (station, date): TMIN count and sum, TMAX count and sum.
                let mut keys: HashMap<(&str, &str), [i64; 4]> = HashMap::new();
                for r in &self.readings {
                    let slot = match r.data_type.as_str() {
                        "TMIN" => 0,
                        "TMAX" => 2,
                        _ => continue,
                    };
                    let k = keys
                        .entry((r.station.as_str(), r.date.as_str()))
                        .or_default();
                    k[slot] += 1;
                    k[slot + 1] += r.value;
                }
                // Every TMIN pairs with every TMAX of its key.
                let (mut total, mut pairs) = (0i64, 0i64);
                for [n_min, sum_min, n_max, sum_max] in keys.into_values() {
                    total += sum_max * n_min - sum_min * n_max;
                    pairs += n_min * n_max;
                }
                Answer::Number(total as f64 / pairs as f64 / 10.0)
            }
        }
    }
}

fn members(item: Option<&Item>) -> &[Item] {
    match item {
        Some(Item::Array(members)) => members,
        _ => panic!("generated documents hold arrays under root and results"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_round_trip_through_text() {
        for a in [
            Answer::Rows {
                count: 3,
                digest: 0xdead_beef,
            },
            Answer::Number(-1.25),
        ] {
            assert_eq!(Answer::decode(&a.encode()), Some(a));
        }
        assert_eq!(Answer::decode("rows 1"), None);
    }

    #[test]
    fn rows_compare_as_multisets() {
        let rows = |v: &[i64]| -> Vec<Vec<Item>> { v.iter().map(|&n| vec![Item::int(n)]).collect() };
        let kind = QueryKind::GroupCount {
            data_type: "TMIN",
            value_ge: None,
        };
        let a = Answer::observed(&kind, &rows(&[1, 2, 2]));
        assert!(a.matches(&Answer::observed(&kind, &rows(&[2, 1, 2]))));
        assert!(!a.matches(&Answer::observed(&kind, &rows(&[1, 1, 2]))));
    }
}
