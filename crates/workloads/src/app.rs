//! Application registry: uniform construction of any workload at any scale.

use dsm_sim::event::{ChunkGen, ChunkedStream, Event};
use serde::{Deserialize, Serialize};

use crate::inputs::Scale;

/// A workload: a chunk generator with a name and input description.
pub trait Workload: ChunkGen {
    fn name(&self) -> &'static str;
    fn input_desc(&self) -> String;
    /// Every shared-data region the workload will touch, in allocation
    /// order. Placement studies use this to model alternative initial
    /// homings (e.g. the serial-initialization first-touch pathology in
    /// [`crate::serial_init`]) without changing the compute stream.
    fn footprint(&self) -> Vec<crate::mem::Region>;
}

impl ChunkGen for Box<dyn Workload> {
    fn n_procs(&self) -> usize {
        (**self).n_procs()
    }
    fn fill(&mut self, proc: usize, buf: &mut Vec<Event>) {
        (**self).fill(proc, buf)
    }
}

impl Workload for Box<dyn Workload> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn input_desc(&self) -> String {
        (**self).input_desc()
    }
    fn footprint(&self) -> Vec<crate::mem::Region> {
        (**self).footprint()
    }
}

/// The four applications of the paper's Table II, plus the Ocean
/// extension (not part of the paper's evaluation — see
/// [`crate::ocean`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum App {
    Lu,
    Fmm,
    Art,
    Equake,
    Ocean,
}

impl App {
    /// The paper's evaluated applications (Table II). Figures iterate this
    /// set; [`App::Ocean`] is an extension reached explicitly.
    pub const ALL: [App; 4] = [App::Lu, App::Fmm, App::Art, App::Equake];
    /// Everything the workspace can simulate, extensions included.
    pub const EXTENDED: [App; 5] = [App::Lu, App::Fmm, App::Art, App::Equake, App::Ocean];

    pub fn name(&self) -> &'static str {
        match self {
            App::Lu => "LU",
            App::Fmm => "FMM",
            App::Art => "Art",
            App::Equake => "Equake",
            App::Ocean => "Ocean",
        }
    }

    /// Build the workload at a given scale for `n_procs` processors.
    pub fn build(&self, n_procs: usize, scale: Scale) -> Box<dyn Workload> {
        match self {
            App::Lu => Box::new(crate::lu::Lu::new(n_procs, crate::inputs::LuInput::at(scale))),
            App::Fmm => Box::new(crate::fmm::Fmm::new(n_procs, crate::inputs::FmmInput::at(scale))),
            App::Art => Box::new(crate::art::Art::new(n_procs, crate::inputs::ArtInput::at(scale))),
            App::Equake => Box::new(crate::equake::Equake::new(
                n_procs,
                crate::inputs::EquakeInput::at(scale),
            )),
            App::Ocean => Box::new(crate::ocean::Ocean::new(
                n_procs,
                crate::inputs::OceanInput::at(scale),
            )),
        }
    }
}

impl std::str::FromStr for App {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lu" => Ok(App::Lu),
            "fmm" => Ok(App::Fmm),
            "art" => Ok(App::Art),
            "equake" => Ok(App::Equake),
            "ocean" => Ok(App::Ocean),
            other => Err(format!("unknown app '{other}' (lu|fmm|art|equake|ocean)")),
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "test" => Ok(Scale::Test),
            "scaled" => Ok(Scale::Scaled),
            "paper" => Ok(Scale::Paper),
            other => Err(format!("unknown scale '{other}' (test|scaled|paper)")),
        }
    }
}

/// Build a buffered instruction stream for an application.
pub fn make_stream(app: App, n_procs: usize, scale: Scale) -> ChunkedStream<Box<dyn Workload>> {
    ChunkedStream::new(app.build(n_procs, scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_parsing() {
        assert_eq!("lu".parse::<App>().unwrap(), App::Lu);
        assert_eq!("EQUAKE".parse::<App>().unwrap(), App::Equake);
        assert!("mp3d".parse::<App>().is_err());
    }

    #[test]
    fn scale_parsing() {
        assert_eq!("test".parse::<Scale>().unwrap(), Scale::Test);
        assert_eq!("scaled".parse::<Scale>().unwrap(), Scale::Scaled);
        assert_eq!("paper".parse::<Scale>().unwrap(), Scale::Paper);
        assert!("huge".parse::<Scale>().is_err());
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = App::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["LU", "FMM", "Art", "Equake"]);
    }
}
