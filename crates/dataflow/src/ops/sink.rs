//! Result sink: ships final frames to the coordinator thread.

use super::FrameWriter;
use crate::channel::Sender;
use crate::error::{DataflowError, Result};
use crate::frame::Frame;

/// Terminal writer of a job: forwards result frames over a channel to the
/// coordinator (the paper's "distribution of each object" final step).
pub struct CollectorWriter {
    tx: Option<Sender<Frame>>,
}

impl CollectorWriter {
    pub fn new(tx: Sender<Frame>) -> Self {
        CollectorWriter { tx: Some(tx) }
    }
}

impl FrameWriter for CollectorWriter {
    fn name(&self) -> &'static str {
        "SINK"
    }

    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    fn next_frame(&mut self, frame: &Frame) -> Result<()> {
        if let Some(tx) = &self.tx {
            tx.send(frame.clone())
                .map_err(|_| DataflowError::Severed("result collector disconnected".into()))?;
        }
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        self.tx = None; // drop our sender so the coordinator unblocks
        Ok(())
    }
}
