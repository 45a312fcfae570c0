//! Seeded dataset generation and fingerprinting, and the expected-answer
//! file the prepare step hands to the measuring process.

use crate::oracle::Answer;
use crate::workload::Workload;
use datagen::SensorSpec;
use std::fs;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// The collection every benchmark query reads (`collection("/sensors")`).
const COLLECTION: &str = "sensors";
const EXPECTED: &str = "expected.txt";

/// The engine's data root inside a run's work directory.
pub fn data_root(work: &Path) -> PathBuf {
    work.join("data")
}

/// A generated dataset: its files in scan order, their size and digest.
pub struct Dataset {
    pub files: Vec<PathBuf>,
    pub bytes: u64,
    /// FNV-1a over each file's collection-relative path and contents.
    pub digest: u64,
}

impl Dataset {
    /// Write the dataset of `spec` under `data_root` and fingerprint it.
    pub fn generate(spec: &SensorSpec, data_root: &Path) -> io::Result<Dataset> {
        spec.generate(&data_root.join(COLLECTION))?;
        Dataset::open(data_root)
    }

    /// List and fingerprint the dataset under `data_root`.
    pub fn open(data_root: &Path) -> io::Result<Dataset> {
        let coll = data_root.join(COLLECTION);
        let mut files = Vec::new();
        for node in 0.. {
            let dir = coll.join(format!("node{node}"));
            if !dir.is_dir() {
                break;
            }
            let mut listed = fs::read_dir(&dir)?
                .map(|e| e.map(|e| e.path()))
                .collect::<io::Result<Vec<_>>>()?;
            listed.retain(|p| p.extension().is_some_and(|e| e == "json"));
            listed.sort();
            files.extend(listed);
        }
        if files.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no dataset under {}", coll.display()),
            ));
        }
        let mut hash = Fnv::default();
        let mut bytes = 0;
        let mut chunk = vec![0u8; 64 * 1024];
        for path in &files {
            let rel = path.strip_prefix(&coll).unwrap_or(path);
            hash.write(rel.to_string_lossy().as_bytes());
            hash.write(&[0]);
            let mut file = fs::File::open(path)?;
            loop {
                let n = file.read(&mut chunk)?;
                if n == 0 {
                    break;
                }
                hash.write(&chunk[..n]);
                bytes += n as u64;
            }
        }
        Ok(Dataset {
            files,
            bytes,
            digest: hash.finish(),
        })
    }

    /// The fingerprint line every run prints.
    pub fn describe(&self, workload: Workload, seed: u64) -> String {
        let nominal = workload.nominal_bytes();
        format!(
            "dataset seed={seed} files={} bytes={} (nominal {nominal}, {:+.2}%) digest=fnv64:{:016x}",
            self.files.len(),
            self.bytes,
            (self.bytes as f64 / nominal as f64 - 1.0) * 100.0,
            self.digest
        )
    }
}

/// 64-bit FNV-1a: a stable digest that needs no dependency.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Write one answer per line, in query order.
pub fn write_expected(work: &Path, answers: &[Answer]) -> io::Result<()> {
    let mut out = BufWriter::new(fs::File::create(work.join(EXPECTED))?);
    for a in answers {
        writeln!(out, "{}", a.encode())?;
    }
    out.flush()
}

pub fn read_expected(work: &Path) -> Result<Vec<Answer>, String> {
    let text = fs::read_to_string(work.join(EXPECTED))
        .map_err(|e| format!("reading the expected answers: {e}"))?;
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            Answer::decode(line)
                .ok_or_else(|| format!("expected answers, line {}: {line:?}", i + 1))
        })
        .collect()
}
