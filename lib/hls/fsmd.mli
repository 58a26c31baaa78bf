(** FSMD (finite-state machine with datapath) code generation: a scheduled
    CFG becomes a {!Soc_rtl.Netlist} module with the Vivado-HLS-style
    [ap_ctrl] protocol and AXI-Lite/AXI-Stream port signals.

    Correctness structure: register enables are gated by each state's
    advance condition so stalled control steps re-execute with unchanged
    operands; shared functional units multiplex operands by issue state,
    multi-cycle units latch operands at issue; BRAM loads hold their
    address across both read cycles. *)

type stream_in_sigs = {
  in_tdata : Soc_rtl.Netlist.signal;
  in_tvalid : Soc_rtl.Netlist.signal;
  in_tready : Soc_rtl.Netlist.signal;  (** module output *)
}

type stream_out_sigs = {
  out_tdata : Soc_rtl.Netlist.signal;
  out_tvalid : Soc_rtl.Netlist.signal;
  out_tready : Soc_rtl.Netlist.signal;  (** module input *)
}

type t = {
  netlist : Soc_rtl.Netlist.t;  (** module name = the kernel's name *)
  ap_start : Soc_rtl.Netlist.signal;
  ap_done : Soc_rtl.Netlist.signal;  (** high for exactly one cycle *)
  ap_idle : Soc_rtl.Netlist.signal;
  scalar_in : (string * Soc_rtl.Netlist.signal) list;
  scalar_out : (string * Soc_rtl.Netlist.signal) list;
  stream_in : (string * stream_in_sigs) list;
  stream_out : (string * stream_out_sigs) list;
  total_states : int;
}

val generate : Schedule.t -> t
