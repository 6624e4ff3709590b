from setuptools import Extension, setup

# The compiled kernels build from the hand-written C in _native.c.
# optional=True: if the build fails, the package installs as pure Python and
# falls back to carmik._kernels.pure.
setup(
    ext_modules=[
        Extension(
            "carmik._kernels._native",
            ["src/carmik/_kernels/_native.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
