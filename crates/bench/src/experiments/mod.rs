//! One module per reproduced figure, plus common engine plumbing.

pub mod chaos;
pub mod common;
pub mod feeds;
pub mod fig01;
pub mod fig0910;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod shards;
