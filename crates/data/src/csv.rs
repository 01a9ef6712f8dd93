//! Minimal CSV reading/writing for labeled point sets.
//!
//! Format: one point per line, `d` comma-separated feature values followed
//! by an integer label in the last column. This is the layout the paper's
//! (never released) datasets would most plausibly use, and it lets users
//! run the examples on their own data.

use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

use adawave_api::PointMatrix;

use crate::dataset::Dataset;

/// Errors produced by CSV I/O.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (wrong arity or unparsable number).
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Parse one data line (`features..., label`) into `row` (which is
/// cleared first) and return the label. `expected_dims` enforces arity
/// consistency across lines once the first row has fixed it.
fn parse_row(
    line_no: usize,
    line: &str,
    expected_dims: Option<usize>,
    row: &mut Vec<f64>,
) -> Result<usize, CsvError> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() < 2 {
        return Err(CsvError::Parse {
            line: line_no,
            message: "need at least one feature and a label".to_string(),
        });
    }
    let d = fields.len() - 1;
    if let Some(expected) = expected_dims {
        if d != expected {
            return Err(CsvError::Parse {
                line: line_no,
                message: format!("expected {expected} features, found {d}"),
            });
        }
    }
    row.clear();
    for f in &fields[..d] {
        row.push(f.parse::<f64>().map_err(|e| CsvError::Parse {
            line: line_no,
            message: format!("bad feature value '{f}': {e}"),
        })?);
    }
    fields[d].parse::<usize>().map_err(|e| CsvError::Parse {
        line: line_no,
        message: format!("bad label '{}': {e}", fields[d]),
    })
}

/// Parse a dataset from CSV text (features..., label). Empty lines and
/// lines starting with `#` are skipped.
pub fn parse_csv(name: &str, text: &str) -> Result<Dataset, CsvError> {
    let mut points: Option<PointMatrix> = None;
    let mut labels = Vec::new();
    let mut row = Vec::new();
    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let label = parse_row(
            line_no + 1,
            line,
            points.as_ref().map(PointMatrix::dims),
            &mut row,
        )?;
        let matrix = points.get_or_insert_with(|| PointMatrix::new(row.len()));
        matrix.push_row(&row);
        labels.push(label);
    }
    Ok(Dataset::new(name, points.unwrap_or_default(), labels, None))
}

/// An iterator over a CSV file read in bounded batches of at most
/// `batch_rows` points — the constant-memory ingestion path of the
/// `adawave stream` subcommand. Each item is a [`Dataset`] holding one
/// batch; feature arity must stay consistent across the whole file, and
/// the first error (I/O or parse) ends the iteration.
#[derive(Debug)]
pub struct CsvBatches {
    lines: std::io::Lines<std::io::BufReader<std::fs::File>>,
    name: String,
    batch_rows: usize,
    line_no: usize,
    dims: Option<usize>,
    failed: bool,
}

impl CsvBatches {
    /// Open a CSV file for batched reading.
    ///
    /// # Panics
    /// Panics if `batch_rows` is zero.
    pub fn open(path: &Path, batch_rows: usize) -> Result<Self, CsvError> {
        assert!(batch_rows > 0, "CsvBatches: batch_rows must be positive");
        let file = std::fs::File::open(path)?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().to_string())
            .unwrap_or_else(|| "csv".to_string());
        Ok(Self {
            lines: std::io::BufReader::new(file).lines(),
            name,
            batch_rows,
            line_no: 0,
            dims: None,
            failed: false,
        })
    }
}

impl Iterator for CsvBatches {
    type Item = Result<Dataset, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let mut points: Option<PointMatrix> = self.dims.map(PointMatrix::new);
        let mut labels = Vec::new();
        let mut row = Vec::new();
        while labels.len() < self.batch_rows {
            let Some(line) = self.lines.next() else { break };
            self.line_no += 1;
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e.into()));
                }
            };
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            match parse_row(self.line_no, trimmed, self.dims, &mut row) {
                Ok(label) => {
                    let matrix = points.get_or_insert_with(|| PointMatrix::new(row.len()));
                    self.dims = Some(matrix.dims());
                    matrix.push_row(&row);
                    labels.push(label);
                }
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
        if labels.is_empty() {
            return None;
        }
        let points = points.expect("labels is non-empty, so points were pushed");
        Some(Ok(Dataset::new(self.name.clone(), points, labels, None)))
    }
}

/// Load a dataset from a CSV file.
pub fn load_csv(path: &Path) -> Result<Dataset, CsvError> {
    let file = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(file);
    let mut text = String::new();
    for line in reader.lines() {
        text.push_str(&line?);
        text.push('\n');
    }
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "csv".to_string());
    parse_csv(&name, &text)
}

/// Write a dataset to a CSV file (features..., label).
pub fn save_csv(dataset: &Dataset, path: &Path) -> Result<(), CsvError> {
    let file = std::fs::File::create(path)?;
    let mut writer = BufWriter::new(file);
    for (point, label) in dataset.points.rows().zip(dataset.labels.iter()) {
        let mut line = String::new();
        for v in point {
            line.push_str(&format!("{v},"));
        }
        line.push_str(&label.to_string());
        writeln!(writer, "{line}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adawave_api::ScratchDir;

    #[test]
    fn parse_basic_csv() {
        let text = "1.0,2.0,0\n3.0,4.0,1\n# comment\n\n5.5,-1.25,0\n";
        let ds = parse_csv("test", text).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dims(), 2);
        assert_eq!(ds.labels, vec![0, 1, 0]);
        assert_eq!(&ds.points[2], &[5.5, -1.25][..]);
    }

    #[test]
    fn parse_rejects_ragged_rows() {
        let text = "1.0,2.0,0\n3.0,1\n";
        assert!(parse_csv("bad", text).is_err());
    }

    #[test]
    fn parse_rejects_bad_numbers() {
        assert!(parse_csv("bad", "1.0,x,0\n").is_err());
        assert!(parse_csv("bad", "1.0,2.0,notalabel\n").is_err());
        assert!(parse_csv("bad", "1.0\n").is_err());
    }

    #[test]
    fn save_and_load_roundtrip() {
        let ds = Dataset::from_rows(
            "roundtrip",
            vec![vec![0.5, 1.5], vec![-2.0, 3.25]],
            vec![1, 0],
            None,
        );
        let scratch = ScratchDir::new("adawave-csv");
        let path = scratch.join("roundtrip.csv");
        save_csv(&ds, &path).unwrap();
        let loaded = load_csv(&path).unwrap();
        assert_eq!(loaded.points, ds.points);
        assert_eq!(loaded.labels, ds.labels);
    }

    #[test]
    fn empty_text_is_empty_dataset() {
        let ds = parse_csv("empty", "").unwrap();
        assert!(ds.is_empty());
    }

    fn write_temp(scratch: &ScratchDir, name: &str, text: &str) -> std::path::PathBuf {
        let path = scratch.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn batches_cover_the_file_in_order_and_match_the_one_shot_parse() {
        let scratch = ScratchDir::new("adawave-csv");
        let mut text = String::from("# header comment\n");
        for i in 0..25 {
            text.push_str(&format!("{}.5,{},{}\n", i, i * 2, i % 3));
        }
        text.push('\n');
        let path = write_temp(&scratch, "adawave_csv_batches_test.csv", &text);
        let whole = load_csv(&path).unwrap();

        let mut rebuilt: Option<Dataset> = None;
        let mut batch_sizes = Vec::new();
        for batch in CsvBatches::open(&path, 7).unwrap() {
            let batch = batch.unwrap();
            batch_sizes.push(batch.len());
            match &mut rebuilt {
                None => rebuilt = Some(batch),
                Some(ds) => {
                    ds.points.append(&batch.points);
                    ds.labels.extend_from_slice(&batch.labels);
                }
            }
        }
        assert_eq!(batch_sizes, vec![7, 7, 7, 4]);
        let rebuilt = rebuilt.unwrap();
        assert_eq!(rebuilt.points, whole.points);
        assert_eq!(rebuilt.labels, whole.labels);
    }

    #[test]
    fn batches_surface_parse_errors_and_stop() {
        let scratch = ScratchDir::new("adawave-csv");
        let path = write_temp(
            &scratch,
            "adawave_csv_batches_error_test.csv",
            "1.0,2.0,0\n1.0,1\nnever,reached,0\n",
        );
        let mut batches = CsvBatches::open(&path, 10).unwrap();
        // The arity error on line 2 surfaces on the first (partial) pull...
        let err = batches.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        // ...and iteration ends instead of resynchronizing mid-file.
        assert!(batches.next().is_none());
    }

    #[test]
    fn batches_enforce_arity_across_batch_boundaries() {
        let scratch = ScratchDir::new("adawave-csv");
        // 2 features in the first batch, 3 in the second: rejected even
        // though each batch alone would be self-consistent.
        let path = write_temp(
            &scratch,
            "adawave_csv_batches_arity_test.csv",
            "1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,7.0,1\n",
        );
        let mut batches = CsvBatches::open(&path, 2).unwrap();
        assert!(batches.next().unwrap().is_ok());
        assert!(batches.next().unwrap().is_err());
    }

    #[test]
    fn batches_of_an_empty_file_yield_nothing() {
        let scratch = ScratchDir::new("adawave-csv");
        let path = write_temp(
            &scratch,
            "adawave_csv_batches_empty_test.csv",
            "# only a comment\n",
        );
        assert!(CsvBatches::open(&path, 4).unwrap().next().is_none());
    }
}
