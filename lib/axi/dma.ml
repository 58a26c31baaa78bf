(** AXI DMA engine model with one MM2S (memory to stream) and one S2MM
    (stream to memory) channel, as instantiated by the paper's integration
    step for every stream that crosses the 'soc boundary.

    Timing model: a channel moves data in bursts of up to [burst_len] beats;
    each burst pays the DRAM first-word latency, then streams one beat per
    cycle into/out of the attached FIFO, subject to FIFO backpressure. *)

let burst_len = 16

type mm2s = {
  m_name : string;
  dram : Dram.t;
  dest : Fifo.t;
  mutable m_addr : int; (* next word to fetch *)
  mutable m_remaining : int; (* words left in the descriptor *)
  mutable m_buffer : int list; (* beats of the in-flight burst *)
  mutable m_wait : int; (* cycles until the in-flight burst data arrives *)
  mutable m_busy : bool;
  mutable m_total_beats : int;
  mutable m_stall : int; (* injected: cycles of no progress *)
  mutable m_error : bool; (* injected: descriptor aborted with an error *)
}

type s2mm = {
  s_name : string;
  s_dram : Dram.t;
  src : Fifo.t;
  mutable s_addr : int;
  mutable s_remaining : int;
  mutable s_credit : int; (* beats writable before paying latency again *)
  mutable s_wait : int;
  mutable s_busy : bool;
  mutable s_total_beats : int;
  mutable s_stall : int;
  mutable s_error : bool;
}

let create_mm2s ~name ~dram ~dest =
  { m_name = name; dram; dest; m_addr = 0; m_remaining = 0; m_buffer = [];
    m_wait = 0; m_busy = false; m_total_beats = 0; m_stall = 0; m_error = false }

let create_s2mm ~name ~dram ~src =
  { s_name = name; s_dram = dram; src; s_addr = 0; s_remaining = 0; s_credit = 0;
    s_wait = 0; s_busy = false; s_total_beats = 0; s_stall = 0; s_error = false }

(* Program a read descriptor: stream [len] words starting at [addr]. The
   error bit is per-descriptor, like a real DMA status register. *)
let start_mm2s t ~addr ~len =
  if t.m_busy then invalid_arg (t.m_name ^ ": MM2S already busy");
  if len < 0 then invalid_arg (t.m_name ^ ": negative length");
  t.m_addr <- addr;
  t.m_remaining <- len;
  t.m_buffer <- [];
  t.m_wait <- 0;
  t.m_error <- false;
  t.m_busy <- len > 0

let start_s2mm t ~addr ~len =
  if t.s_busy then invalid_arg (t.s_name ^ ": S2MM already busy");
  if len < 0 then invalid_arg (t.s_name ^ ": negative length");
  t.s_addr <- addr;
  t.s_remaining <- len;
  t.s_credit <- 0;
  t.s_wait <- 0;
  t.s_error <- false;
  t.s_busy <- len > 0

let mm2s_idle t = not t.m_busy
let s2mm_idle t = not t.s_busy
let mm2s_ok t = not t.m_error
let s2mm_ok t = not t.s_error

(* ---- fault injection and recovery -------------------------------- *)

let inject_stall_mm2s t ~cycles = t.m_stall <- max t.m_stall cycles
let inject_stall_s2mm t ~cycles = t.s_stall <- max t.s_stall cycles

(* Abort the in-flight descriptor with a transfer error: the channel goes
   idle with its error bit set and the rest of the transfer is lost. *)
let inject_error_mm2s t =
  t.m_error <- true;
  t.m_busy <- false;
  t.m_buffer <- [];
  t.m_remaining <- 0;
  t.m_wait <- 0

let inject_error_s2mm t =
  t.s_error <- true;
  t.s_busy <- false;
  t.s_remaining <- 0;
  t.s_credit <- 0;
  t.s_wait <- 0

(* Driver-level channel reset: clears any descriptor, stall and error. *)
let reset_mm2s t =
  t.m_busy <- false;
  t.m_buffer <- [];
  t.m_remaining <- 0;
  t.m_wait <- 0;
  t.m_stall <- 0;
  t.m_error <- false

let reset_s2mm t =
  t.s_busy <- false;
  t.s_remaining <- 0;
  t.s_credit <- 0;
  t.s_wait <- 0;
  t.s_stall <- 0;
  t.s_error <- false

(* One simulated cycle of the MM2S channel. *)
let step_mm2s t =
  if t.m_stall > 0 then t.m_stall <- t.m_stall - 1
  else if t.m_busy then begin
    if t.m_wait > 0 then t.m_wait <- t.m_wait - 1
    else begin
      match t.m_buffer with
      | beat :: rest ->
        (* Offer one beat per cycle to the stream, respecting backpressure. *)
        if Fifo.can_push t.dest then begin
          Fifo.push t.dest beat;
          t.m_total_beats <- t.m_total_beats + 1;
          t.m_buffer <- rest;
          if rest = [] && t.m_remaining = 0 then t.m_busy <- false
        end
      | [] ->
        if t.m_remaining = 0 then t.m_busy <- false
        else begin
          (* Issue the next burst. *)
          let len = min burst_len t.m_remaining in
          let data = Dram.read_block t.dram ~addr:t.m_addr ~len in
          t.m_addr <- t.m_addr + len;
          t.m_remaining <- t.m_remaining - len;
          t.m_buffer <- Array.to_list data;
          t.m_wait <- Dram.first_word_latency t.dram
        end
    end
  end

let step_s2mm t =
  if t.s_stall > 0 then t.s_stall <- t.s_stall - 1
  else if t.s_busy then begin
    if t.s_wait > 0 then t.s_wait <- t.s_wait - 1
    else if t.s_credit = 0 then begin
      (* Pay the write-burst issue latency when data is available. *)
      if not (Fifo.is_empty t.src) then begin
        t.s_credit <- min burst_len t.s_remaining;
        t.s_wait <- Dram.first_word_latency t.s_dram / 2
      end
    end
    else begin
      match Fifo.front t.src with
      | Some beat ->
        ignore (Fifo.pop t.src);
        Dram.write t.s_dram t.s_addr beat;
        t.s_addr <- t.s_addr + 1;
        t.s_remaining <- t.s_remaining - 1;
        t.s_credit <- t.s_credit - 1;
        t.s_total_beats <- t.s_total_beats + 1;
        if t.s_remaining = 0 then t.s_busy <- false
      | None -> ()
    end
  end

(* Fabric resource footprint of one AXI DMA core (Xilinx AXI DMA v7.1-class
   numbers on Zynq-7000); used when aggregating system resources and in the
   SDSoC one-DMA-per-argument ablation. *)
let resource_cost ~channels =
  let lut = 450 + (550 * channels) in
  let ff = 600 + (700 * channels) in
  let bram18 = channels in
  (lut, ff, bram18)
