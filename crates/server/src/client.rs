//! A blocking wire-protocol client.
//!
//! One request, one response, in order — the protocol has no pipelining.
//! Convenience methods decode the expected response kind and turn
//! everything else into a typed [`ProtocolError`]; [`Client::request`]
//! exposes the raw exchange for callers (benches, smoke tests) that want
//! to observe `Busy` and error responses directly.

use std::net::{TcpStream, ToSocketAddrs};

use tm_relational::{Tuple, Value};

use crate::error::{ProtocolError, Result};
use crate::proto::{read_frame, write_request, Request, Response, TxReport};

/// A connected, tenant-bound protocol client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    tenant: String,
}

/// A prepared statement as seen by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedStmt {
    /// The server-side statement id.
    pub stmt_id: u32,
    /// Number of `?N` placeholders to bind.
    pub param_count: u32,
}

impl Client {
    /// Connect and bind to `tenant` (the `Hello` handshake).
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            stream,
            tenant: tenant.to_owned(),
        };
        match client.request(&Request::Hello {
            tenant: tenant.to_owned(),
        })? {
            Response::HelloOk { .. } => Ok(client),
            other => Err(unexpected(other)),
        }
    }

    /// The tenant this connection is bound to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Send one request and read its response — the raw exchange.
    /// `Busy` and `Error` arrive as `Ok(Response::...)`, not errors.
    pub fn request(&mut self, req: &Request) -> Result<Response> {
        write_request(&mut self.stream, req)?;
        match read_frame(&mut self.stream)? {
            Some(payload) => Ok(Response::decode(&payload)?),
            None => Err(ProtocolError::UnexpectedEof { got: 0 }),
        }
    }

    /// Prepare a transaction template.
    pub fn prepare(&mut self, template: &str) -> Result<PreparedStmt> {
        match self.request(&Request::Prepare {
            template: template.to_owned(),
        })? {
            Response::Prepared {
                stmt_id,
                param_count,
            } => Ok(PreparedStmt {
                stmt_id,
                param_count,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Bind and execute a prepared statement once.
    pub fn execute(&mut self, stmt: PreparedStmt, params: Vec<Value>) -> Result<TxReport> {
        match self.request(&Request::Execute {
            stmt_id: stmt.stmt_id,
            params,
        })? {
            Response::Tx(report) => Ok(report),
            other => Err(unexpected(other)),
        }
    }

    /// [`Client::execute`] with automatic retry on serialization
    /// conflicts ([`crate::proto::ErrorCode::Conflict`]). Returns the
    /// report together with the number of retries spent; the last
    /// conflict propagates when the budget is exhausted. Against this
    /// crate's server the count is always 0: it serializes executions
    /// under the tenant's engine lock and never reports a conflict.
    pub fn execute_retrying(
        &mut self,
        stmt: PreparedStmt,
        params: Vec<Value>,
        max_retries: usize,
    ) -> Result<(TxReport, usize)> {
        let mut retries = 0;
        loop {
            match self.execute(stmt, params.clone()) {
                Err(e) if e.is_conflict() && retries < max_retries => retries += 1,
                other => return other.map(|r| (r, retries)),
            }
        }
    }

    /// Bind and execute a prepared statement once per binding; returns
    /// `(committed, aborted)` counts. Each binding is its own
    /// transaction; the server runs them in order under one hold of the
    /// tenant's engine lock per [`txmod::MAX_BINDINGS_PER_HOLD`]. A
    /// binding that cannot execute (wrong arity or type) ends the batch
    /// with a typed `Engine` error: the bindings before it have run and
    /// stay committed, none after it runs. The error message starts with
    /// `binding {k}: `, where `k` is the failing binding's index — the
    /// number of bindings that ran — so a retry can resume at `k` instead
    /// of re-applying them.
    pub fn execute_many(
        &mut self,
        stmt: PreparedStmt,
        bindings: Vec<Vec<Value>>,
    ) -> Result<(u64, u64)> {
        match self.request(&Request::ExecuteMany {
            stmt_id: stmt.stmt_id,
            bindings,
        })? {
            Response::Batch { committed, aborted } => Ok((committed, aborted)),
            other => Err(unexpected(other)),
        }
    }

    /// Execute an ad-hoc transaction.
    pub fn ad_hoc(&mut self, tx: &str) -> Result<TxReport> {
        match self.request(&Request::AdHoc { tx: tx.to_owned() })? {
            Response::Tx(report) => Ok(report),
            other => Err(unexpected(other)),
        }
    }

    /// Add an RL rule to the tenant's catalog.
    pub fn define_rule(&mut self, name: &str, text: &str) -> Result<String> {
        self.expect_ack(Request::DefineRule {
            name: name.to_owned(),
            text: text.to_owned(),
        })
    }

    /// Declare a CL constraint on the tenant's catalog.
    pub fn define_constraint(&mut self, name: &str, cl: &str) -> Result<String> {
        self.expect_ack(Request::DefineConstraint {
            name: name.to_owned(),
            cl: cl.to_owned(),
        })
    }

    /// Remove a rule or constraint by name.
    pub fn remove_rule(&mut self, name: &str) -> Result<String> {
        self.expect_ack(Request::RemoveRule {
            name: name.to_owned(),
        })
    }

    /// Read a consistent snapshot of one relation (tuples arrive
    /// sorted).
    pub fn snapshot(&mut self, relation: &str) -> Result<Vec<Tuple>> {
        match self.request(&Request::Snapshot {
            relation: relation.to_owned(),
        })? {
            Response::SnapshotData { tuples, .. } => Ok(tuples),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch the catalog analysis rendering.
    pub fn analyze(&mut self) -> Result<String> {
        match self.request(&Request::Analyze)? {
            Response::Analysis { text } => Ok(text),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch the server metrics dump.
    pub fn stats(&mut self) -> Result<String> {
        match self.request(&Request::Stats)? {
            Response::StatsDump { text } => Ok(text),
            other => Err(unexpected(other)),
        }
    }

    fn expect_ack(&mut self, req: Request) -> Result<String> {
        match self.request(&req)? {
            Response::Ack { detail } => Ok(detail),
            other => Err(unexpected(other)),
        }
    }
}

/// Map a well-formed but out-of-place response to the matching typed
/// error: server errors and admission rejections keep their identity,
/// everything else is [`ProtocolError::Unexpected`].
fn unexpected(resp: Response) -> ProtocolError {
    match resp {
        Response::Error { code, message } => ProtocolError::Remote { code, message },
        Response::Busy { limit } => ProtocolError::Busy { limit },
        other => ProtocolError::Unexpected {
            got: format!("{other:?}"),
        },
    }
}
