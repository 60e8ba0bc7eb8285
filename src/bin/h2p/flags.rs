//! The one argument parser every `h2p` subcommand reads its command line
//! through. A subcommand declares the flags it takes; flags may come in
//! any order among its operands, the last of a repeated flag wins, and
//! every malformed line ends the same way: a message, the usage text,
//! exit status 2.

use std::fmt::Display;
use std::str::FromStr;

use h2p_baselines::Scheme;
use h2p_models::zoo::ModelId;
use h2p_simulator::faults::parse_fault_specs;
use h2p_simulator::{FaultSpec, SocSpec};

/// How a flag takes its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// `--json`: no value.
    Switch,
    /// `--soc NAME`: the next argument, whatever it is.
    Value,
    /// `--corrupt [CLASS]`: the next argument only if it is one of these
    /// words, so the flag may stand right before a model name.
    Optional(&'static [&'static str]),
}

/// The flags one subcommand takes.
pub type Spec = &'static [(&'static str, Arity)];

/// One subcommand's parsed command line.
#[derive(Debug)]
pub struct Flags {
    cmd: &'static str,
    /// Flags in command-line order, each with the value it took.
    given: Vec<(&'static str, Option<String>)>,
    /// The arguments that are neither flags nor flag values, in order.
    pub operands: Vec<String>,
}

impl Flags {
    /// Parses `args` against `spec`, or fails with a usage error.
    pub fn new(cmd: &'static str, args: &[String], spec: Spec) -> Flags {
        Flags::parse(cmd, args, spec).unwrap_or_else(|e| fail(e))
    }

    /// Parses `args` against `spec`. An argument that starts with `--`
    /// must be one of `spec`'s flags; every other argument that no flag
    /// takes as its value is an operand.
    pub fn parse(cmd: &'static str, args: &[String], spec: Spec) -> Result<Flags, String> {
        let mut given = Vec::new();
        let mut operands = Vec::new();
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            let Some(&(flag, arity)) = spec.iter().find(|(f, _)| f == arg) else {
                if arg.starts_with("--") {
                    return Err(format!("unknown {cmd} flag: {arg}"));
                }
                operands.push(arg.clone());
                continue;
            };
            let value = match arity {
                Arity::Switch => None,
                Arity::Value => match args.next() {
                    Some(v) => Some(v.clone()),
                    None => return Err(format!("{flag} needs a value")),
                },
                Arity::Optional(words) => args.next_if(|v| words.contains(&v.as_str())).cloned(),
            };
            given.push((flag, value));
        }
        Ok(Flags {
            cmd,
            given,
            operands,
        })
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// The last given of `flags`, with its value: of several flags that
    /// set the same thing, the last one wins.
    pub fn last(&self, flags: &[&str]) -> Option<(&'static str, Option<&str>)> {
        self.given
            .iter()
            .rev()
            .find(|(f, _)| flags.contains(f))
            .map(|(f, v)| (*f, v.as_deref()))
    }

    /// The value of the last `flag` given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.last(&[flag]).and_then(|(_, v)| v)
    }

    /// The last `flag`'s value through `read`; a value `read` refuses is
    /// a usage error saying the flag needs `want`.
    pub fn read<T>(
        &self,
        flag: &str,
        want: &str,
        read: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        let v = self.value(flag)?;
        Some(read(v).unwrap_or_else(|| fail(format!("{flag} needs {want}, not '{v}'"))))
    }

    /// The last `flag`'s value parsed as a `T`.
    pub fn num<T: FromStr>(&self, flag: &str, want: &str) -> Option<T> {
        self.read(flag, want, |v| v.parse().ok())
    }

    /// `--soc`, Kirin 990 when absent.
    pub fn soc(&self) -> SocSpec {
        match self.value("--soc") {
            None => SocSpec::kirin_990(),
            Some(name) => parse_soc(name).unwrap_or_else(|| fail(format!("unknown soc: {name}"))),
        }
    }

    /// `--scheme`, Hetero²Pipe when absent.
    pub fn scheme(&self) -> Scheme {
        self.read(
            "--scheme",
            "mnn, pipeit, band, dart, noct or h2p",
            parse_scheme,
        )
        .unwrap_or(Scheme::Hetero2Pipe)
    }

    /// `--faults SPEC`, resolved against `soc`'s processors.
    pub fn faults(&self, soc: &SocSpec) -> Option<Vec<FaultSpec>> {
        let spec = self.value("--faults")?;
        Some(
            parse_fault_specs(spec, soc)
                .unwrap_or_else(|err| fail(format!("bad --faults spec: {err}"))),
        )
    }

    /// The operands, of which the subcommand takes at most `max`.
    pub fn operands_at_most(&self, max: usize) -> &[String] {
        if let Some(extra) = self.operands.get(max) {
            fail(format!("unexpected {} operand: {extra}", self.cmd))
        }
        &self.operands
    }

    /// The operands as zoo models; at least one is required.
    pub fn models(&self) -> Vec<ModelId> {
        if self.operands.is_empty() {
            fail("no models given")
        }
        self.operands
            .iter()
            .map(|m| parse_model(m).unwrap_or_else(|| fail(format!("unknown model: {m}"))))
            .collect()
    }
}

/// Prints the usage text and exits with status 2.
pub fn usage() -> ! {
    eprintln!("{}", crate::USAGE);
    std::process::exit(2);
}

/// The one error path: `msg`, then the usage text, exit status 2.
pub fn fail(msg: impl Display) -> ! {
    eprintln!("{msg}");
    usage()
}

/// A positive integer, as `--seeds` takes.
pub fn positive(v: &str) -> Option<u64> {
    v.parse().ok().filter(|&n| n > 0)
}

fn parse_soc(name: &str) -> Option<SocSpec> {
    match name
        .to_ascii_lowercase()
        .replace(['-', '_', ' '], "")
        .as_str()
    {
        "kirin990" | "kirin" => Some(SocSpec::kirin_990()),
        "sd778g" | "snapdragon778g" | "778g" => Some(SocSpec::snapdragon_778g()),
        "sd870" | "snapdragon870" | "870" => Some(SocSpec::snapdragon_870()),
        _ => None,
    }
}

/// A zoo model by name, case-, dash- and underscore-insensitive.
pub fn parse_model(name: &str) -> Option<ModelId> {
    let n = name.to_ascii_lowercase().replace(['-', '_'], "");
    ModelId::ALL
        .into_iter()
        .find(|m| m.name().to_ascii_lowercase().replace(['-', '_'], "") == n)
        .or(match n.as_str() {
            "yolo" | "yolov4" => Some(ModelId::YoloV4),
            "mobilenet" | "mobilenetv2" => Some(ModelId::MobileNetV2),
            "inception" | "inceptionv4" => Some(ModelId::InceptionV4),
            "vgg" | "vgg16" => Some(ModelId::Vgg16),
            _ => None,
        })
}

fn parse_scheme(name: &str) -> Option<Scheme> {
    match name.to_ascii_lowercase().as_str() {
        "mnn" | "serial" => Some(Scheme::MnnSerial),
        "pipeit" | "pipe-it" => Some(Scheme::PipeIt),
        "band" => Some(Scheme::Band),
        "dart" => Some(Scheme::Dart),
        "noct" | "no-ct" => Some(Scheme::NoCt),
        "h2p" | "hetero2pipe" => Some(Scheme::Hetero2Pipe),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: Spec = &[
        ("--soc", Arity::Value),
        ("--audit", Arity::Switch),
        ("--corrupt", Arity::Optional(&["overlap", "stretch"])),
    ];

    fn parse(args: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
        Flags::parse("trace", &args, TRACE)
    }

    #[test]
    fn a_value_flag_at_the_end_needs_its_value() {
        assert_eq!(
            parse(&["bert", "--soc"]).unwrap_err(),
            "--soc needs a value"
        );
    }

    #[test]
    fn the_last_of_a_repeated_flag_wins() {
        let flags = parse(&["--soc", "sd870", "bert", "--soc", "kirin990"]).unwrap();
        assert_eq!(flags.value("--soc"), Some("kirin990"));
        assert_eq!(flags.operands, ["bert"]);
        let flags = parse(&["--corrupt", "stretch", "--corrupt", "bert"]).unwrap();
        assert_eq!(flags.last(&["--corrupt"]), Some(("--corrupt", None)));
    }

    #[test]
    fn corrupt_takes_its_class_only_when_one_follows() {
        let flags = parse(&["--audit", "--corrupt", "bert"]).unwrap();
        assert!(flags.has("--audit") && flags.has("--corrupt"));
        assert_eq!(flags.value("--corrupt"), None);
        assert_eq!(flags.operands, ["bert"]);

        let flags = parse(&["--corrupt", "stretch", "bert", "resnet50"]).unwrap();
        assert_eq!(flags.value("--corrupt"), Some("stretch"));
        assert_eq!(flags.operands, ["bert", "resnet50"]);

        let flags = parse(&["bert", "--corrupt"]).unwrap();
        assert!(flags.has("--corrupt"));
        assert_eq!(flags.operands, ["bert"]);
    }

    #[test]
    fn a_flag_the_subcommand_does_not_take_is_refused() {
        assert_eq!(
            parse(&["bert", "--json"]).unwrap_err(),
            "unknown trace flag: --json"
        );
        // A value is taken whatever it looks like, as before.
        let flags = parse(&["--soc", "--json", "bert"]).unwrap();
        assert_eq!(flags.value("--soc"), Some("--json"));
        assert!(!flags.has("--json"));
    }

    #[test]
    fn names_parse_loosely() {
        assert_eq!(parse_model("MobileNet-V2"), Some(ModelId::MobileNetV2));
        assert_eq!(parse_model("yolo"), Some(ModelId::YoloV4));
        assert_eq!(parse_scheme("No-CT"), Some(Scheme::NoCt));
        assert!(parse_soc("Snapdragon_870").is_some());
        assert!(parse_soc("exynos").is_none());
    }
}
