//! Minimal CSV reading/writing for traces and experiment outputs.
//!
//! Hand-rolled on purpose: experiment artifacts are plain numeric tables,
//! and keeping the writer local avoids an extra dependency (see DESIGN.md
//! §6). Values never contain separators or quotes.

use crate::trace::Trace;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

/// Write named numeric columns as CSV. Columns may have different lengths;
/// shorter columns leave trailing cells empty.
pub(crate) fn write_columns<W: Write>(
    mut w: W,
    columns: &[(&str, &[f64])],
) -> io::Result<()> {
    let header: Vec<&str> = columns.iter().map(|(name, _)| *name).collect();
    writeln!(w, "{}", header.join(","))?;
    let rows = columns.iter().map(|(_, c)| c.len()).max().unwrap_or(0);
    for r in 0..rows {
        let mut cells = Vec::with_capacity(columns.len());
        for (_, col) in columns {
            if r < col.len() {
                cells.push(format!("{}", col[r]));
            } else {
                cells.push(String::new());
            }
        }
        writeln!(w, "{}", cells.join(","))?;
    }
    Ok(())
}

/// Write named numeric columns to a file path (creating parent dirs).
pub fn write_columns_to_path(path: impl AsRef<Path>, columns: &[(&str, &[f64])]) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let f = std::fs::File::create(path)?;
    write_columns(BufWriter::new(f), columns)
}

/// Save a trace as two-column CSV (`step,value`).
pub fn write_trace(path: impl AsRef<Path>, trace: &Trace) -> io::Result<()> {
    let steps: Vec<f64> = (0..trace.len()).map(|i| i as f64).collect();
    write_columns_to_path(path, &[("step", &steps), (&trace.name, &trace.values)])
}

/// Read a single numeric column by name from CSV text.
///
/// Returns `None` if the column is missing; a cell that is not a finite
/// number (unparsable, `NaN`, `±inf`) becomes `Err(InvalidData)` naming it.
pub fn read_column<R: BufRead>(r: R, name: &str) -> io::Result<Option<Vec<f64>>> {
    let mut lines = r.lines();
    let header = match lines.next() {
        Some(h) => h?,
        None => return Ok(None),
    };
    let idx = match header.split(',').position(|c| c.trim() == name) {
        Some(i) => i,
        None => return Ok(None),
    };
    let mut out = Vec::new();
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let cell = line.split(',').nth(idx).unwrap_or("").trim();
        if cell.is_empty() {
            continue;
        }
        let v = cell.parse::<f64>().ok().filter(|v| v.is_finite()).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad cell {cell:?}: not a finite number"))
        })?;
        out.push(v);
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_columns() {
        let mut buf = Vec::new();
        write_columns(&mut buf, &[("a", &[1.0, 2.5][..]), ("b", &[3.0][..])]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, "a,b\n1,3\n2.5,\n");
        let a = read_column(Cursor::new(&text), "a").unwrap().unwrap();
        assert_eq!(a, vec![1.0, 2.5]);
        let b = read_column(Cursor::new(&text), "b").unwrap().unwrap();
        assert_eq!(b, vec![3.0]);
    }

    #[test]
    fn missing_column_is_none() {
        let text = "x,y\n1,2\n";
        assert!(read_column(Cursor::new(text), "z").unwrap().is_none());
    }

    #[test]
    fn bad_cell_is_error() {
        for cell in ["not-a-number", "NaN", "inf", "-inf"] {
            let text = format!("x\n1\n{cell}\n");
            let err = read_column(Cursor::new(text), "x").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{cell}");
            assert!(err.to_string().contains(cell), "{cell}: {err}");
        }
    }

    #[test]
    fn trace_file_roundtrip() {
        let dir = std::env::temp_dir().join("rpas-csv-test");
        let path = dir.join("trace.csv");
        let t = Trace::new("cpu", 600, vec![10.0, 20.0, 30.0]);
        write_trace(&path, &t).unwrap();
        let f = io::BufReader::new(std::fs::File::open(&path).unwrap());
        assert_eq!(read_column(f, "cpu").unwrap().unwrap(), t.values);
        std::fs::remove_dir_all(&dir).ok();
    }
}
