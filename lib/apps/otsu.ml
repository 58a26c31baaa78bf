(** The Otsu binary-segmentation case study (Section VI).

    The application has six tasks (Fig. 8): readImage, grayScale, histogram,
    otsuMethod, binarization, writeImage. The four middle tasks exist both
    as a pure OCaml golden model and as kernels in the IR; the kernel names
    follow Listing 4 (computeHistogram, halfProbability, segment).

    All arithmetic is integer-only and identical between the golden model
    and the kernels, so hardware, software and reference runs are
    bit-exact. The score formula [((wB*wF)/total) * diff^2] keeps every
    intermediate within 32 bits for images up to 256x256. *)

open Soc_kernel
open Soc_kernel.Ast.Build

(* ------------------------------------------------------------------ *)
(* Golden model                                                        *)
(* ------------------------------------------------------------------ *)

module Golden = struct
  let gray_of_rgb packed =
    let r, g, b = Image.unpack_rgb packed in
    ((77 * r) + (150 * g) + (29 * b)) lsr 8

  let gray_scale (rgb : Image.rgb_image) : Image.t =
    let out = Image.create ~width:rgb.Image.rgb_width ~height:rgb.Image.rgb_height in
    Array.iteri (fun i v -> out.Image.pixels.(i) <- gray_of_rgb v) rgb.Image.rgb;
    out

  let histogram (img : Image.t) = Image.histogram img

  (* Integer Otsu: maximize ((wB*wF)/total) * (mB-mF)^2. *)
  let otsu_threshold (hist : int array) ~total =
    let sum_all = ref 0 in
    Array.iteri (fun t h -> sum_all := !sum_all + (t * h)) hist;
    let w_b = ref 0 and sum_b = ref 0 in
    let best = ref 0 and thresh = ref 0 in
    for t = 0 to 255 do
      let h = hist.(t) in
      w_b := !w_b + h;
      sum_b := !sum_b + (t * h);
      if !w_b <> 0 && !w_b <> total then begin
        let w_f = total - !w_b in
        let m_b = !sum_b / !w_b in
        let m_f = (!sum_all - !sum_b) / w_f in
        let diff = m_b - m_f in
        let score = !w_b * w_f / total * diff * diff in
        if score > !best then begin
          best := score;
          thresh := t
        end
      end
    done;
    !thresh

  let binarize (img : Image.t) ~threshold =
    Image.map (fun p -> if p > threshold then 255 else 0) img

  (* Full pipeline, the reference for every architecture. *)
  let run (rgb : Image.rgb_image) : Image.t * int =
    let gray = gray_scale rgb in
    let hist = histogram gray in
    let threshold = otsu_threshold hist ~total:(Image.size gray) in
    (binarize gray ~threshold, threshold)
end

(* ------------------------------------------------------------------ *)
(* Kernels (the "synthesizable C" of the case study)                   *)
(* ------------------------------------------------------------------ *)

(* grayScale: RGB stream in, two identical gray streams out (one feeds the
   histogram chain, one feeds the final segmentation, as in Listing 4). *)
let gray_scale_kernel ~pixels =
  {
    Ast.kname = "grayScale";
    ports =
      [ in_stream "imageIn" Ty.U32; out_stream "imageOutCH" Ty.U32;
        out_stream "imageOutSEG" Ty.U32 ];
    locals =
      [ ("i", Ty.U32); ("p", Ty.U32); ("r", Ty.U32); ("g", Ty.U32); ("b", Ty.U32);
        ("gray", Ty.U32) ];
    arrays = [];
    body =
      [
        for_ "i" ~from:(int 0) ~below:(int pixels)
          [
            pop "p" "imageIn";
            set "r" ((v "p" >>: int 16) &: int 255);
            set "g" ((v "p" >>: int 8) &: int 255);
            set "b" (v "p" &: int 255);
            set "gray" (((int 77 *: v "r") +: (int 150 *: v "g") +: (int 29 *: v "b")) >>: int 8);
            push "imageOutCH" (v "gray");
            push "imageOutSEG" (v "gray");
          ];
      ];
  }

(* computeHistogram: gray stream in, 256-bin histogram stream out. The
   local BRAM is explicitly zeroed so the accelerator is restartable. *)
let histogram_kernel ~pixels =
  {
    Ast.kname = "computeHistogram";
    ports = [ in_stream "grayScaleImage" Ty.U32; out_stream "histogram" Ty.U32 ];
    locals = [ ("i", Ty.U32); ("p", Ty.U32) ];
    arrays = [ array "hist" Ty.U32 256 ];
    body =
      [
        for_ "i" ~from:(int 0) ~below:(int 256) [ store "hist" (v "i") (int 0) ];
        for_ "i" ~from:(int 0) ~below:(int pixels)
          [
            pop "p" "grayScaleImage";
            store "hist" (v "p") (load "hist" (v "p") +: int 1);
          ];
        for_ "i" ~from:(int 0) ~below:(int 256) [ push "histogram" (load "hist" (v "i")) ];
      ];
  }

(* halfProbability (the paper's otsuMethod actor): histogram in, the Otsu
   threshold out. *)
let otsu_method_kernel ~pixels =
  {
    Ast.kname = "halfProbability";
    ports = [ in_stream "histogram" Ty.U32; out_stream "probability" Ty.U32 ];
    locals =
      [ ("t", Ty.I32); ("h", Ty.I32); ("wB", Ty.I32); ("wF", Ty.I32); ("sumB", Ty.I32);
        ("sumAll", Ty.I32); ("mB", Ty.I32); ("mF", Ty.I32); ("diff", Ty.I32);
        ("score", Ty.I32); ("best", Ty.I32); ("thresh", Ty.I32) ];
    arrays = [ array "hist" Ty.U32 256 ];
    body =
      [
        set "sumAll" (int 0);
        for_ "t" ~from:(int 0) ~below:(int 256)
          [
            pop "h" "histogram";
            store "hist" (v "t") (v "h");
            set "sumAll" (v "sumAll" +: (v "t" *: v "h"));
          ];
        set "wB" (int 0);
        set "sumB" (int 0);
        set "best" (int 0);
        set "thresh" (int 0);
        for_ "t" ~from:(int 0) ~below:(int 256)
          [
            set "h" (load "hist" (v "t"));
            set "wB" (v "wB" +: v "h");
            set "sumB" (v "sumB" +: (v "t" *: v "h"));
            if_
              (Ast.Bin (Ast.Band, v "wB" <>: int 0, v "wB" <>: int pixels))
              [
                set "wF" (int pixels -: v "wB");
                set "mB" (v "sumB" /: v "wB");
                set "mF" ((v "sumAll" -: v "sumB") /: v "wF");
                set "diff" (v "mB" -: v "mF");
                set "score" (v "wB" *: v "wF" /: int pixels *: v "diff" *: v "diff");
                if_ (v "score" >: v "best")
                  [ set "best" (v "score"); set "thresh" (v "t") ]
                  [];
              ]
              [];
          ];
        push "probability" (v "thresh");
      ];
  }

(* segment (the paper's binarization actor): reads the threshold first,
   then streams the gray image through the comparator. *)
let segment_kernel ~pixels =
  {
    Ast.kname = "segment";
    ports =
      [ in_stream "grayScaleImage" Ty.U32; in_stream "otsuThreshold" Ty.U32;
        out_stream "segmentedGrayImage" Ty.U32 ];
    locals = [ ("i", Ty.U32); ("p", Ty.U32); ("thr", Ty.U32) ];
    arrays = [];
    body =
      [
        pop "thr" "otsuThreshold";
        for_ "i" ~from:(int 0) ~below:(int pixels)
          [
            pop "p" "grayScaleImage";
            push "segmentedGrayImage" ((v "p" >: v "thr") *: int 255);
          ];
      ];
  }

(* All four kernels for a given image geometry, keyed by their Listing 4
   node names. *)
let kernels ~width ~height =
  let pixels = width * height in
  if pixels > 65536 then invalid_arg "Otsu.kernels: image too large for 32-bit score math";
  [
    ("grayScale", gray_scale_kernel ~pixels);
    ("computeHistogram", histogram_kernel ~pixels);
    ("halfProbability", otsu_method_kernel ~pixels);
    ("segment", segment_kernel ~pixels);
  ]
