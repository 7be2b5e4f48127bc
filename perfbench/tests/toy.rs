//! The benchmark's own fast test: every workload at toy size, traced and
//! untraced, must print every metric `BENCHMARK.json` names with its
//! unit and pass every check; a corrupted outcome digest must be
//! reported as a failure.

use std::collections::BTreeMap;
use std::process::Command;

/// A minimal JSON value, enough for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected {:?}", c as char);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k:?}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            out.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                b'u' => {
                                    let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                        .expect("ascii escape");
                                    self.i += 4;
                                    char::from_u32(u32::from_str_radix(hex, 16).expect("hex"))
                                        .expect("scalar value")
                                }
                                other => other as char,
                            });
                        }
                        _ => {
                            // Copy one UTF-8 sequence.
                            let start = self.i - 1;
                            let mut end = self.i;
                            while end < self.s.len() && (self.s[end] & 0xC0) == 0x80 {
                                end += 1;
                            }
                            out.push_str(std::str::from_utf8(&self.s[start..end]).expect("utf-8"));
                            self.i = end;
                        }
                    }
                }
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// Metric name → unit for one metric list of `BENCHMARK.json`.
fn declared(spec: &Json, list: &str) -> BTreeMap<String, String> {
    spec.get(list)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

struct Run {
    success: bool,
    last_line: String,
}

fn run(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Run {
        success: out.status.success(),
        last_line: stdout.lines().last().unwrap_or("").to_string(),
    }
}

#[test]
fn every_workload_prints_every_declared_metric_and_passes_its_checks() {
    let spec = benchmark_json();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let workloads: Vec<String> = spec
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    assert_eq!(workloads, ["scale", "hot", "readers", "dist", "live"]);
    for workload in &workloads {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let r = run(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0.2",
                "--trace",
                trace,
                "--toy",
            ]);
            let what = format!("{workload} --trace {trace}");
            assert!(r.success, "{what} exited non-zero: {}", r.last_line);
            let result = Json::parse(&r.last_line);
            let keys: Vec<&String> = result.obj().keys().collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{what}"
            );
            assert_eq!(result.get("correct"), &Json::Bool(true), "{what}");
            assert_eq!(result.get("failed").num(), 0.0, "{what}");
            assert!(result.get("attempted").num() >= 1.0, "{what}");
            let metrics = result.get("metrics").obj();
            let printed: Vec<&String> = metrics.keys().collect();
            let wanted: Vec<&String> = expected.keys().collect();
            assert_eq!(printed, wanted, "{what}: metric names");
            for (name, unit) in expected {
                let m = metrics[name].obj();
                assert_eq!(m["unit"].str(), unit, "{what}: unit of {name}");
                assert!(m["value"].num().is_finite(), "{what}: value of {name}");
            }
            for name in end_to_end.keys().filter(|_| trace == "0") {
                assert!(
                    metrics[name].get("value").num() > 0.0,
                    "{what}: end-to-end metric {name} must not be zero"
                );
            }
        }
    }
}

#[test]
fn corrupted_outcome_digest_is_reported_as_a_failure() {
    let r = run(&[
        "--workload",
        "hot",
        "--seed",
        "3",
        "--seconds",
        "0.1",
        "--trace",
        "0",
        "--toy",
        "--corrupt-digest",
    ]);
    assert!(
        !r.success,
        "a corrupted digest must make the exit status non-zero"
    );
    let result = Json::parse(&r.last_line);
    assert_eq!(result.get("correct"), &Json::Bool(false));
    assert!(result.get("failed").num() > 0.0);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "hot", "--seconds", "1", "--trace", "0"][..],
        &[
            "--workload",
            "hot",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "hot",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let r = run(args);
        assert!(!r.success, "{args:?} must fail");
        assert!(r.last_line.is_empty(), "{args:?} printed {:?}", r.last_line);
    }
}
