module dpiservice/benchmark

go 1.22

require dpiservice v0.0.0

replace dpiservice => ../
